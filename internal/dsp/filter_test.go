package dsp

import (
	"math"
	"testing"
)

func TestDCBlockerRemovesOffset(t *testing.T) {
	b := NewDCBlocker(0.995)
	var last float64
	for i := 0; i < 5000; i++ {
		last = b.ProcessSample(3.0) // pure DC
	}
	if math.Abs(last) > 0.01 {
		t.Errorf("DC residue = %v", last)
	}
}

func TestDCBlockerPassesAC(t *testing.T) {
	b := NewDCBlocker(0.995)
	var sumIn, sumOut float64
	n := 4000
	for i := 0; i < n; i++ {
		x := 2 + math.Sin(2*math.Pi*float64(i)/20) // DC + tone
		y := b.ProcessSample(x)
		if i > 1000 {
			sumIn += math.Sin(2*math.Pi*float64(i)/20) * math.Sin(2*math.Pi*float64(i)/20)
			sumOut += y * y
		}
	}
	if sumOut < 0.5*sumIn {
		t.Errorf("AC attenuated too much: %v vs %v", sumOut, sumIn)
	}
}

func TestDCBlockerFirstSampleNoTransient(t *testing.T) {
	b := NewDCBlocker(0.99)
	if y := b.ProcessSample(5); y != 0 {
		t.Errorf("first sample output %v, want 0 (primed)", y)
	}
}

func TestSchmittTriggerHysteresis(t *testing.T) {
	s, err := NewSchmittTrigger(0.3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	seq := []float64{0, 0.5, 0.8, 0.5, 0.4, 0.2, 0.5, 0.69}
	want := []bool{false, false, true, true, true, false, false, false}
	for i, x := range seq {
		if got := s.ProcessSample(x); got != want[i] {
			t.Fatalf("step %d (x=%v): got %v, want %v", i, x, got, want[i])
		}
	}
}

func TestSchmittTriggerRejectsNoiseInBand(t *testing.T) {
	s, _ := NewSchmittTrigger(0.4, 0.6)
	s.ProcessSample(1.0) // latch high
	flips := 0
	prev := true
	for i := 0; i < 1000; i++ {
		x := 0.5 + 0.05*math.Sin(float64(i)) // noise inside band
		cur := s.ProcessSample(x)
		if cur != prev {
			flips++
		}
		prev = cur
	}
	if flips != 0 {
		t.Errorf("in-band noise caused %d flips", flips)
	}
}

func TestSchmittTriggerErrors(t *testing.T) {
	if _, err := NewSchmittTrigger(0.7, 0.3); err == nil {
		t.Error("inverted thresholds accepted")
	}
}
