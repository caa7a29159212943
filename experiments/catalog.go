package experiments

// Size is the sample budget of a catalogue run.
type Size struct {
	Seeds   int // Monte Carlo seeds per convergence point
	Packets int // packets (or beacons) per link-loss cell
	Slots   int // slots per long-running slot simulation
}

// The two budgets the arachnet-experiments CLI runs at: the default
// and -quick (smaller, faster, noisier).
var (
	DefaultSize = Size{Seeds: 21, Packets: 1000, Slots: 10_000}
	QuickSize   = Size{Seeds: 7, Packets: 200, Slots: 2000}
)

// Experiment is one table, figure, ablation or extension of the
// catalogue.
type Experiment struct {
	Name string
	Desc string
	Run  func() (Table, error)
}

// Catalog lists every experiment in report order, bound to seed and
// size. It is the single list behind the arachnet-experiments CLI and
// the root BenchmarkExperiment harness.
func Catalog(seed uint64, sz Size) []Experiment {
	return []Experiment{
		{"table1", "vanilla slot allocation example", func() (Table, error) {
			_, tb, err := RunTable1()
			return tb, err
		}},
		{"table2", "tag power by mode", func() (Table, error) {
			_, tb, err := RunTable2(seed)
			return tb, err
		}},
		{"table3", "evaluation workloads", func() (Table, error) {
			_, tb := RunTable3()
			return tb, nil
		}},
		{"fig11a", "amplified voltage vs stages", func() (Table, error) {
			_, tb, err := RunFig11a()
			return tb, err
		}},
		{"fig11b", "charging time and net power", func() (Table, error) {
			_, tb, err := RunFig11b()
			return tb, err
		}},
		{"fig12a", "uplink SNR vs rate", func() (Table, error) {
			_, tb, err := RunFig12a(seed)
			return tb, err
		}},
		{"fig12b", "uplink packet loss", func() (Table, error) {
			_, tb, err := RunFig12b(seed, sz.Packets)
			return tb, err
		}},
		{"fig13a", "downlink beacon loss", func() (Table, error) {
			_, tb, err := RunFig13a(seed, sz.Packets)
			return tb, err
		}},
		{"fig13b", "beacon sync offsets", func() (Table, error) {
			_, tb, err := RunFig13b(seed)
			return tb, err
		}},
		{"fig14", "ping-pong latency", func() (Table, error) {
			_, tb, err := RunFig14(seed)
			return tb, err
		}},
		{"fig15a", "convergence, fixed tags", func() (Table, error) {
			_, tb, err := RunFig15a(sz.Seeds)
			return tb, err
		}},
		{"fig15b", "convergence, fixed utilization", func() (Table, error) {
			_, tb, err := RunFig15b(sz.Seeds)
			return tb, err
		}},
		{"fig16", "long-running slot statistics", func() (Table, error) {
			_, tb, err := RunFig16(seed, sz.Slots)
			return tb, err
		}},
		{"fig17", "strain case study", func() (Table, error) {
			_, tb, err := RunFig17()
			return tb, err
		}},
		{"fig19", "ALOHA baseline", func() (Table, error) {
			_, tb, err := RunFig19(seed)
			return tb, err
		}},
		{"appendixc", "convergence proof verification", RunAppendixC},
		{"aloha-vs", "ALOHA vs distributed head-to-head", func() (Table, error) {
			return RunAlohaVsDistributed(seed, sz.Slots)
		}},
		{"ablation-vanilla", "vanilla vs distributed under loss", func() (Table, error) {
			return RunAblationVanillaVsDistributed(seed, sz.Slots, 0.001)
		}},
		{"ablation-timer", "beacon-loss timer", func() (Table, error) {
			return RunAblationBeaconLossTimer(seed, sz.Slots, 0.005)
		}},
		{"ablation-empty", "EMPTY-flag gate", func() (Table, error) {
			return RunAblationEmptyGate(sz.Seeds / 2)
		}},
		{"ablation-future", "future-collision avoidance", func() (Table, error) {
			return RunAblationFutureCollision(sz.Seeds / 2)
		}},
		{"ablation-nack", "NACK threshold sweep", func() (Table, error) {
			return RunAblationNackThreshold(seed, sz.Slots)
		}},
		{"ablation-interrupt", "interrupt-driven power", func() (Table, error) {
			return RunAblationInterruptDriven(), nil
		}},
		{"dl-scheme", "FSK-in-OOK-out vs plain OOK downlink", func() (Table, error) {
			_, tb, err := RunDLSchemeStudy(seed, sz.Packets/2)
			return tb, err
		}},
		{"multi-reader", "spatial multiplexing extension", func() (Table, error) {
			return RunMultiReaderStudy(seed, sz.Slots)
		}},
		{"ambient", "ambient harvesting extension", RunAmbientHarvestStudy},
		{"budget", "per-position energy budget", RunBudgetTable},
		{"crossval", "probabilistic vs waveform-DSP link models", func() (Table, error) {
			return RunModeCrossValidation(seed, sz.Slots/10)
		}},
		{"fig15-net", "convergence cross-check on the event network", func() (Table, error) {
			return RunFig15Network(seed, sz.Seeds/2)
		}},
	}
}
