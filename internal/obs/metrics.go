package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Metrics is a registry of named counters. It is safe for concurrent
// use, and Snapshot renders it sorted by name so two identical runs
// produce byte-identical summaries. As a Sink it is an event census.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]uint64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{counters: make(map[string]uint64)}
}

// Emit implements Sink: it counts the event under "events_<kind>". The
// names of the vocabulary's kinds are built once, so counting one of
// them allocates nothing.
func (m *Metrics) Emit(ev Event) {
	name, ok := censusNames[ev.Kind]
	if !ok {
		name = "events_" + string(ev.Kind)
	}
	m.Inc(name)
}

// censusNames maps each kind of the vocabulary to its census counter.
var censusNames = func() map[Kind]string {
	m := make(map[Kind]string, len(kindTag))
	for k := range kindTag {
		m[k] = "events_" + string(k)
	}
	return m
}()

// Inc adds one to the named counter. Nil-safe.
func (m *Metrics) Inc(name string) { m.Add(name, 1) }

// Add adds delta to the named counter. Nil-safe.
func (m *Metrics) Add(name string, delta uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Counters returns a copy of the counter map — the form HTTP health
// endpoints embed directly (Go marshals map keys sorted, so the JSON
// is deterministic). Nil-safe (returns nil).
func (m *Metrics) Counters() map[string]uint64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.counters))
	for name, v := range m.counters {
		out[name] = v
	}
	return out
}

// CounterSnapshot is one counter's value at snapshot time.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// Snapshot is the full registry state, sorted by name.
type Snapshot struct {
	Counters []CounterSnapshot `json:"counters"`
}

// Snapshot renders the registry deterministically, counters sorted by
// name. Nil-safe (returns the zero Snapshot).
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var sn Snapshot
	names := make([]string, 0, len(m.counters))
	for name := range m.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sn.Counters = append(sn.Counters, CounterSnapshot{Name: name, Value: m.counters[name]})
	}
	return sn
}

// String renders the snapshot as an aligned text report.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "%-32s %d\n", c.Name, c.Value)
	}
	return b.String()
}
