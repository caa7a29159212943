package arachnet

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"testing"
)

func chargedConfig(seed uint64) NetworkConfig {
	cfg := DefaultNetworkConfig()
	cfg.Seed = seed
	return cfg
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(NetworkConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := chargedConfig(1)
	cfg.Tags = append(cfg.Tags, TagSpec{TID: 13, Period: 4}) // 13 tags
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("13 tags accepted by a 12-position deployment")
	}
	cfg = chargedConfig(1)
	cfg.Tags[0].TID = 0
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("TID 0 accepted")
	}
	cfg = chargedConfig(1)
	cfg.Tags[1].TID = cfg.Tags[0].TID
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("duplicate TID accepted")
	}
	cfg = chargedConfig(1)
	cfg.Tags[0].Period = 3
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("invalid period accepted")
	}
}

// TestTable2EmergentPower verifies that the full network reproduces the
// Table 2 power rows from interrupt activity alone.
func TestTable2EmergentPower(t *testing.T) {
	net, err := NewNetwork(chargedConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(300 * Second)
	st := net.Stats()
	for _, tp := range st.Tags {
		if math.Abs(tp.RXMicrowatts-24.8) > 4 {
			t.Errorf("tag %d RX = %.1f uW, want ~24.8", tp.TID, tp.RXMicrowatts)
		}
		if math.Abs(tp.TXMicrowatts-51.0) > 8 {
			t.Errorf("tag %d TX = %.1f uW, want ~51.0", tp.TID, tp.TXMicrowatts)
		}
		if math.Abs(tp.IdleMicrowatts-7.6) > 1.5 {
			t.Errorf("tag %d IDLE = %.1f uW, want ~7.6", tp.TID, tp.IdleMicrowatts)
		}
	}
}

func TestNetworkConvergesAndStaysClean(t *testing.T) {
	net, err := NewNetwork(chargedConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(1500 * Second)
	st := net.Stats()
	if !st.Converged {
		t.Fatalf("no convergence in 1500 slots: %v", st)
	}
	// After convergence the channel stays essentially collision-free.
	collBefore := net.Reader.Window.Slots()
	_ = collBefore
	pre := net.Reader.Convergence.ConvergenceSlot()
	preColl := st.CollisionRatio * float64(st.Slots)
	net.Run(2000 * Second)
	st2 := net.Stats()
	postColl := st2.CollisionRatio * float64(st2.Slots)
	if postColl-preColl > 5 {
		t.Errorf("%.0f collisions after convergence at slot %d", postColl-preColl, pre)
	}
	// Every tag heard essentially every beacon at 250 bps (Fig. 13a:
	// ~zero loss at the default rate).
	for _, tp := range st2.Tags {
		lossPct := 100 * float64(tp.BeaconsLost) / float64(tp.BeaconsSeen+tp.BeaconsLost)
		if lossPct > 1 {
			t.Errorf("tag %d beacon loss %.2f%% at 250 bps", tp.TID, lossPct)
		}
	}
}

// TestChargingFromEmpty verifies the Fig. 11(b) behaviour end to end:
// uncharged tags activate in path-loss order over tens of seconds and
// then integrate into the running network as late arrivals.
func TestChargingFromEmpty(t *testing.T) {
	cfg := chargedConfig(4)
	for i := range cfg.Tags {
		cfg.Tags[i].StartCharged = false
	}
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After 10 s the best-coupled tag (tag 8, ~4 s charge) is up, the
	// cargo tags (tag 11: ~66 s) are not.
	net.Run(10 * Second)
	if !net.Tag(8).Powered() {
		t.Error("tag 8 not powered after 10 s (charges in ~4 s)")
	}
	if net.Tag(11).Powered() {
		t.Error("tag 11 powered after 10 s (needs ~60 s)")
	}
	// By two minutes everyone is up.
	net.Run(120 * Second)
	for _, spec := range net.Cfg.Tags {
		if !net.Tag(spec.TID).Powered() {
			t.Errorf("tag %d still unpowered after 120 s", spec.TID)
		}
	}
	// And the network eventually converges with the late arrivals.
	net.Run(2500 * Second)
	if !net.Stats().Converged {
		t.Error("network with staggered activation never converged")
	}
}

// TestDownlinkRateCliff reproduces the Fig. 13(a) mechanism: at
// 2000 bps the 12 kHz timer's quantization, the reader's software
// jitter and the envelope bias overwhelm the PIE discrimination
// window, while 250 bps stays clean.
func TestDownlinkRateCliff(t *testing.T) {
	lossAt := func(rate float64) float64 {
		cfg := chargedConfig(5)
		cfg.DLRate = rate
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		net.Run(300 * Second)
		var seen, lost uint64
		for _, tp := range net.Stats().Tags {
			seen += tp.BeaconsSeen
			lost += tp.BeaconsLost
		}
		if seen+lost == 0 {
			return 1
		}
		return float64(lost) / float64(seen+lost)
	}
	low := lossAt(250)
	high := lossAt(2000)
	if low > 0.02 {
		t.Errorf("beacon loss %.3f at 250 bps, want ~0", low)
	}
	if high < 0.10 {
		t.Errorf("beacon loss %.3f at 2000 bps, want a cliff (paper: massive)", high)
	}
	if high < 5*low+0.05 {
		t.Errorf("no cliff: %.3f vs %.3f", high, low)
	}
}

// TestSyncOffsetsUnder5ms is the Fig. 13(b) claim: all tags decode each
// beacon within 5 ms of the reference tag 6.
func TestSyncOffsetsUnder5ms(t *testing.T) {
	net, err := NewNetwork(chargedConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(120 * Second)
	offsets := net.SyncOffsets(6)
	if len(offsets) < 10 {
		t.Fatalf("only %d tags produced offsets", len(offsets))
	}
	for tid, offs := range offsets {
		if len(offs) == 0 {
			continue
		}
		for _, o := range offs {
			ms := math.Abs(o.Milliseconds())
			if ms >= 5.0 {
				t.Errorf("tag %d sync offset %.2f ms >= 5 ms", tid, ms)
			}
		}
	}
}

// TestPingPongLatency checks the Fig. 14 anchors: stage 1 (beacon) is
// ~100 ms at 250 bps, and 99% of stage 2 stays under ~282 ms.
func TestPingPongLatency(t *testing.T) {
	net, err := NewNetwork(chargedConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(600 * Second)
	pp := net.Reader.PingPongs()
	if len(pp) < 100 {
		t.Fatalf("only %d ping-pong samples", len(pp))
	}
	var stage2 []float64
	for _, s := range pp {
		if s.Stage1 < 70*Millisecond || s.Stage1 > 130*Millisecond {
			t.Fatalf("stage 1 = %v, want ~100 ms", s.Stage1)
		}
		stage2 = append(stage2, s.Stage2.Milliseconds())
	}
	sort.Float64s(stage2)
	p99 := stage2[len(stage2)*99/100]
	if p99 > 300 {
		t.Errorf("stage 2 p99 = %.1f ms, want < 300 (paper: 281.9)", p99)
	}
	// Stage 2 must include the 20 ms polite wait + ~171 ms UL frame.
	if stage2[0] < 190 {
		t.Errorf("stage 2 min = %.1f ms, impossibly fast", stage2[0])
	}
}

// TestStrainPayloadTracksDisplacement runs the Sec. 6.5 case study
// through the full network: bending the monitored metal changes the
// decoded payloads monotonically.
func TestStrainPayloadTracksDisplacement(t *testing.T) {
	cfg := chargedConfig(8)
	cfg.Tags = cfg.Tags[:3] // three sensor tags as in Fig. 17
	for i := range cfg.Tags {
		cfg.Tags[i].WithSensor = true
		cfg.Tags[i].Period = 4 // U = 0.75, within Eq. 1
	}
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mids []float64
	for _, d := range []float64{-0.10, 0, 0.10} {
		for _, spec := range cfg.Tags {
			if err := net.SetDisplacement(spec.TID, d); err != nil {
				t.Fatal(err)
			}
		}
		until := net.Now() + 60*Second
		net.Run(until)
		vals := net.Payloads(cfg.Tags[0].TID)
		if len(vals) < 3 {
			t.Fatalf("too few payloads at d=%v", d)
		}
		// Average the last few samples.
		var sum float64
		n := 0
		for _, v := range vals[len(vals)-3:] {
			sum += float64(v)
			n++
		}
		mids = append(mids, sum/float64(n))
	}
	if !(mids[0] < mids[1] && mids[1] < mids[2]) {
		t.Errorf("payloads not monotone in displacement: %v", mids)
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() NetworkStats {
		net, err := NewNetwork(chargedConfig(9))
		if err != nil {
			t.Fatal(err)
		}
		net.Run(200 * Second)
		return net.Stats()
	}
	a, b := run(), run()
	if a.String() != b.String() {
		t.Errorf("same seed diverged:\n%v\nvs\n%v", a, b)
	}
}

// TestNetworkFingerprint pins the full stats text of a 200 s run. The
// engine fires events in (time, scheduling order), and any drift in that
// order — from the queue, from event recycling, or from a callback bound
// differently — moves at least one beacon or energy count here. The
// waveform case runs every slot through the DSP slot decoder, so a change
// in any decode or collision verdict moves it too.
func TestNetworkFingerprint(t *testing.T) {
	for _, tc := range []struct {
		name     string
		waveform bool
		want     string
	}{
		{"probabilistic", false, "34957322ac811c8d6dda9dbe702ef303668f5d1c6feb0efc052357bcfa0d8183"},
		{"waveform", true, "2fd97a5f368995bcbead141d2e0764554e6be023b7cf3c0105ab8577762005c3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chargedConfig(9)
			cfg.WaveformDecode = tc.waveform
			net, err := NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			net.Run(200 * Second)
			sum := sha256.Sum256([]byte(net.Stats().String()))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("stats fingerprint %s, want %s:\n%v", got, tc.want, net.Stats())
			}
		})
	}
}

// TestNetworkAllocCeiling bounds the heap allocations of building and
// running a 60 s default-config network. The event engine recycles its
// events, the per-tag callbacks are bound once and the tag classifies
// each PIE pulse without building a slice, so the count is dominated by
// network construction and per-slot frame handling, not by
// scheduling or edge interrupts.
func TestNetworkAllocCeiling(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		net, err := NewNetwork(DefaultNetworkConfig())
		if err != nil {
			t.Fatal(err)
		}
		net.Run(60 * Second)
	})
	if allocs > 800 {
		t.Errorf("60 s network run made %.0f allocations, want <= 800", allocs)
	}
}

// TestNetworkSteadyStateAllocs bounds what a running default network
// allocates per ten slots once construction is paid: about one at the
// time of writing, from the amortized growth of the reader's payload
// and latency logs. Frames are words, the reader modulates each beacon
// into a reused edge buffer, each tag FM0-encodes into a reused chip
// buffer, and every engine callback is bound once; more than one
// allocation per slot fails this test.
func TestNetworkSteadyStateAllocs(t *testing.T) {
	net, err := NewNetwork(DefaultNetworkConfig())
	if err != nil {
		t.Fatal(err)
	}
	net.Run(60 * Second)
	allocs := testing.AllocsPerRun(5, func() { net.Run(net.Now() + 10*Second) })
	if allocs > 10 {
		t.Errorf("10 s of a running network made %.0f allocations, want <= 10", allocs)
	}
}

func TestSetDisplacementUnknownTag(t *testing.T) {
	net, err := NewNetwork(chargedConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetDisplacement(15, 0.1); err == nil {
		t.Error("unknown tag accepted")
	}
}

func TestLinkModelShapes(t *testing.T) {
	net, err := NewNetwork(chargedConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	lm := net.Link
	// Packet success falls with rate, and the paper's <0.5% loss bound
	// holds for every tag at every nominal rate (Fig. 12b).
	for id := 1; id <= 12; id++ {
		prev := -1.0
		for _, rate := range []float64{93.75, 187.5, 375, 750, 1500, 3000} {
			p, err := lm.PacketSuccessProb(id, rate, 64)
			if err != nil {
				t.Fatal(err)
			}
			if p < 0.995 {
				t.Errorf("tag %d @%v bps: success %.4f breaches the 0.5%% loss bound", id, rate, p)
			}
			if prev >= 0 && p > prev+1e-12 {
				t.Errorf("tag %d: success not non-increasing at %v bps", id, rate)
			}
			prev = p
		}
	}
	// Chip error probability is capped.
	lm2 := *lm
	lm2.TimingErrFloor = 10
	pe, err := lm2.ChipErrorProb(1, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if pe > 0.5 {
		t.Errorf("chip error %.3f above cap", pe)
	}
}

func TestEnvelopeDelays(t *testing.T) {
	net, err := NewNetwork(chargedConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	lm := net.Link
	// Strong tags cross the comparator sooner on the rise.
	r8, err := lm.EnvelopeRiseDelay(8, 80e-6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	r11, err := lm.EnvelopeRiseDelay(11, 80e-6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r8 >= r11 {
		t.Errorf("rise delay tag8 %.2e >= tag11 %.2e", r8, r11)
	}
	// Fall delay is longer for stronger tags (higher swing to decay).
	f8, _ := lm.EnvelopeFallDelay(8, 80e-6, 0.05)
	f11, _ := lm.EnvelopeFallDelay(11, 80e-6, 0.05)
	if f8 <= f11 {
		t.Errorf("fall delay tag8 %.2e <= tag11 %.2e", f8, f11)
	}
	// A threshold above the swing means no demodulation.
	inf, _ := lm.EnvelopeRiseDelay(11, 80e-6, 10)
	if !math.IsInf(inf, 1) {
		t.Error("undetectable carrier should report +Inf delay")
	}
}
