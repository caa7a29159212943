package fleetd

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/wire"
)

// Checkpoint encoding (internal/wire format, DESIGN.md §11). A
// checkpoint file is the 8-byte stream header followed by one CKP1
// frame whose payload opens with a CRC-32C over the rest, so torn or
// bit-rotted files are detected instead of half-trusted. Spec and
// Report travel as their exact submitted JSON bytes (the daemon's
// cache key and the report fingerprint are functions of those bytes),
// and each shard outcome is a nested JOC1 frame, so fingerprints
// survive a checkpoint round trip bit-identically.

// AppendCheckpoint appends rec's complete binary file image (header +
// CKP1 frame) to dst, stamped with the current schema version.
func AppendCheckpoint(dst []byte, rec *Record) []byte {
	dst = wire.AppendHeader(dst)
	start := len(dst)
	dst = wire.BeginFrame(dst, wire.TagCheckpoint)
	crcAt := len(dst)
	dst = wire.AppendU32(dst, 0) // CRC backfilled below
	dst = wire.AppendUvarint(dst, uint64(checkpointVersion))
	dst = wire.AppendString(dst, rec.ID)
	dst = wire.AppendString(dst, rec.State)
	dst = wire.AppendBytes(dst, rec.Spec)
	dst = wire.AppendUvarint(dst, uint64(len(rec.Outcomes)))
	for i := range rec.Outcomes {
		dst = fleet.AppendJobOutcome(dst, &rec.Outcomes[i])
	}
	dst = wire.AppendString(dst, rec.Fingerprint)
	dst = wire.AppendBytes(dst, rec.Report)
	dst = wire.AppendString(dst, rec.Error)
	crc := wire.Checksum(dst[crcAt+4:])
	dst[crcAt] = byte(crc)
	dst[crcAt+1] = byte(crc >> 8)
	dst[crcAt+2] = byte(crc >> 16)
	dst[crcAt+3] = byte(crc >> 24)
	return wire.EndFrame(dst, start)
}

// UnmarshalCheckpoint parses a complete binary checkpoint file image,
// verifying the header, frame, and CRC. Hostile input returns
// wire-sentinel errors; it never panics.
func UnmarshalCheckpoint(data []byte) (Record, error) {
	h, err := wire.ConsumeHeader(data)
	if err != nil {
		return Record{}, err
	}
	tag, payload, n, err := wire.ConsumeFrame(data[h:])
	if err != nil {
		return Record{}, err
	}
	if tag != wire.TagCheckpoint {
		return Record{}, fmt.Errorf("%w: %s, want %s", wire.ErrUnknownTag, tag, wire.TagCheckpoint)
	}
	if h+n != len(data) {
		return Record{}, fmt.Errorf("%w: %d trailing bytes after checkpoint frame", wire.ErrMalformed, len(data)-h-n)
	}
	d := wire.NewDecoder(payload)
	crc := d.U32()
	if got := wire.Checksum(d.Rest()); got != crc {
		d.Fail(fmt.Errorf("%w: checkpoint crc %08x, content is %08x", wire.ErrMalformed, crc, got))
	}
	if version := d.Uvarint(); version != checkpointVersion {
		d.Fail(fmt.Errorf("%w: checkpoint schema version %d, this build reads %d", wire.ErrMalformed, version, checkpointVersion))
	}
	rec := Record{ID: d.Str(), State: d.Str(), Spec: d.Bytes()}
	// Each outcome is a nested JOC1 frame, at least a frame header long.
	for i, count := 0, d.Count(wire.FrameHeaderSize); i < count && d.Err() == nil; i++ {
		var o fleet.JobOutcome
		if _, err := fleet.UnmarshalJobOutcome(d.Frame(), &o); err != nil {
			d.Fail(err)
		}
		rec.Outcomes = append(rec.Outcomes, o)
	}
	rec.Fingerprint = d.Str()
	rec.Report = d.Bytes()
	rec.Error = d.Str()
	if err := d.Finish("checkpoint payload"); err != nil {
		return Record{}, err
	}
	return rec, nil
}
