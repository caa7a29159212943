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
// CKP1 frame) to dst. The record's Version field is ignored:
// checkpoints always write the current schema version.
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
	var rec Record
	h, err := wire.ConsumeHeader(data)
	if err != nil {
		return rec, err
	}
	tag, payload, n, err := wire.ConsumeFrame(data[h:])
	if err != nil {
		return rec, err
	}
	if tag != wire.TagCheckpoint {
		return rec, fmt.Errorf("%w: %s, want %s", wire.ErrUnknownTag, tag, wire.TagCheckpoint)
	}
	if h+n != len(data) {
		return rec, fmt.Errorf("%w: %d trailing bytes after checkpoint frame", wire.ErrMalformed, len(data)-h-n)
	}
	crc, off, err := wire.ConsumeU32(payload)
	if err != nil {
		return rec, err
	}
	if got := wire.Checksum(payload[off:]); got != crc {
		return rec, fmt.Errorf("%w: checkpoint crc %08x, content is %08x", wire.ErrMalformed, crc, got)
	}
	version, m, err := wire.ConsumeUvarint(payload[off:])
	if err != nil {
		return rec, err
	}
	off += m
	if version != checkpointVersion {
		return rec, fmt.Errorf("%w: checkpoint schema version %d, this build reads %d", wire.ErrMalformed, version, checkpointVersion)
	}
	rec.Version = int(version)
	if rec.ID, m, err = wire.ConsumeString(payload[off:]); err != nil {
		return Record{}, err
	}
	off += m
	if rec.State, m, err = wire.ConsumeString(payload[off:]); err != nil {
		return Record{}, err
	}
	off += m
	spec, m, err := wire.ConsumeBytes(payload[off:])
	if err != nil {
		return Record{}, err
	}
	off += m
	rec.Spec = spec
	count, m, err := wire.ConsumeUvarint(payload[off:])
	if err != nil {
		return Record{}, err
	}
	off += m
	if count > uint64(len(payload)-off)/uint64(wire.FrameHeaderSize) {
		return Record{}, fmt.Errorf("%w: %d outcomes with %d bytes remaining", wire.ErrTruncated, count, len(payload)-off)
	}
	if count > 0 {
		rec.Outcomes = make([]fleet.JobOutcome, count)
		for i := uint64(0); i < count; i++ {
			m, err := fleet.UnmarshalJobOutcome(payload[off:], &rec.Outcomes[i])
			if err != nil {
				return Record{}, err
			}
			off += m
		}
	}
	if rec.Fingerprint, m, err = wire.ConsumeString(payload[off:]); err != nil {
		return Record{}, err
	}
	off += m
	report, m, err := wire.ConsumeBytes(payload[off:])
	if err != nil {
		return Record{}, err
	}
	off += m
	rec.Report = report
	if rec.Error, m, err = wire.ConsumeString(payload[off:]); err != nil {
		return Record{}, err
	}
	off += m
	if off != len(payload) {
		return Record{}, fmt.Errorf("%w: %d trailing bytes in checkpoint payload", wire.ErrMalformed, len(payload)-off)
	}
	return rec, nil
}
