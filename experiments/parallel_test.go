package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestRunJobsIndexOrderAndErrors(t *testing.T) {
	got := make([]int, 100)
	if err := runJobs("square", len(got), func(i int) error {
		got[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("job %d wrote %d", i, v)
		}
	}
	// The reported error must be the lowest-index failure regardless of
	// completion order.
	err := runJobs("fail", 50, func(i int) error {
		if i == 7 || i == 33 {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "job 7 failed" {
		t.Fatalf("err = %v, want job 7's", err)
	}
	if err := runJobs("none", 0, func(int) error { return fmt.Errorf("never") }); err != nil {
		t.Fatalf("n=0 returned %v", err)
	}
}

// TestRunJobsWorkerBound: the fan-out never has more fn calls in
// flight than SetWorkers allows, so -workers 1 really runs serially.
func TestRunJobsWorkerBound(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	for _, workers := range []int{1, 3} {
		SetWorkers(workers)
		var mu sync.Mutex
		inFlight, peak := 0, 0
		if err := runJobs("bound", 24, func(int) error {
			mu.Lock()
			inFlight++
			peak = max(peak, inFlight)
			mu.Unlock()
			time.Sleep(2 * time.Millisecond) // widen the window for overlap
			mu.Lock()
			inFlight--
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if peak > workers {
			t.Errorf("SetWorkers(%d): %d fn calls in flight at once", workers, peak)
		}
	}
}

// TestExperimentsWorkerCountIndependent pins the parallelized Monte
// Carlo experiments to their serial outputs: every table must be
// bit-identical between a 1-worker and a many-worker run.
func TestExperimentsWorkerCountIndependent(t *testing.T) {
	type result struct {
		name string
		tb   Table
	}
	collect := func() []result {
		var out []result
		_, tb12a, err := RunFig12a(7)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, result{"fig12a", tb12a})
		_, tb12b, err := RunFig12b(7, 40)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, result{"fig12b", tb12b})
		_, tb13a, err := RunFig13a(7, 40)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, result{"fig13a", tb13a})
		_, tbdl, err := RunDLSchemeStudy(7, 30)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, result{"dlscheme", tbdl})
		_, tb15a, err := RunFig15a(7)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, result{"fig15a", tb15a})
		tbEmpty, err := RunAblationEmptyGate(7)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, result{"ablation-empty", tbEmpty})
		return out
	}
	prev := SetWorkers(1)
	serial := collect()
	SetWorkers(4)
	parallel := collect()
	SetWorkers(prev)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("%s differs between 1 and 4 workers:\nserial:   %+v\nparallel: %+v",
				serial[i].name, serial[i], parallel[i])
		}
	}
}
