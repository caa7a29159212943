package obs

import (
	"slices"
	"testing"
)

// TestRecentWindow checks the window against a plain re-sliced log at
// every length, across several copy-downs.
func TestRecentWindow(t *testing.T) {
	for _, n := range []int{1, 2, 5, 64} {
		r := NewRecent[int](n)
		var want []int
		for i := 0; i < 5*n+3; i++ {
			r.Add(i)
			want = append(want, i)
			if len(want) > n {
				want = want[1:]
			}
			if got := r.All(); !slices.Equal(got, want) {
				t.Fatalf("max %d after %d adds: window %v, want %v", n, i+1, got, want)
			}
		}
	}
}

// TestRecentAddIsAmortized: once full, a log appends without
// allocating.
func TestRecentAddIsAmortized(t *testing.T) {
	r := NewRecent[int](64)
	for i := 0; i < 256; i++ {
		r.Add(i)
	}
	if a := testing.AllocsPerRun(1000, func() { r.Add(1) }); a != 0 {
		t.Errorf("Add on a full log: %v allocs, want 0", a)
	}
}
