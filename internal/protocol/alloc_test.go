package protocol_test

import (
	"runtime"
	"testing"

	"bfskel/internal/core"
	"bfskel/internal/protocol"
)

// allocBudgetPerNode bounds the heap bytes one four-phase run may allocate
// per node, per engine, on the 2.6k-node window at K = L = 4. The parallel
// engine's run is almost all node-local state — one dedup table per node,
// handed from the neighborhood phase to the centrality phase, plus the
// phases' program and output slices — and measured ~1.6 KB/node; the
// serial reference engine copies every packed message to the heap and
// measured ~30 KB/node. Each bound leaves about 2x headroom, so per-node
// tables or send buffers creeping back (the previous layout allocated
// ~7 KB/node on the parallel engine) fail the test.
var allocBudgetPerNode = map[protocol.Engine]uint64{
	protocol.EngineParallel: 3 << 10,
	protocol.EngineSerial:   64 << 10,
}

// TestRunAllocationBudget measures the bytes a protocol run allocates on
// each engine and holds them to allocBudgetPerNode. The minimum over a few
// runs is taken, so a run that rebuilds the parallel engine's pooled
// arenas after a collection emptied the pool does not count.
func TestRunAllocationBudget(t *testing.T) {
	g := buildNetwork(t, "window", 2592, 7, 1)
	params := core.DefaultParams()
	for _, eng := range []protocol.Engine{protocol.EngineParallel, protocol.EngineSerial} {
		t.Run(eng.String(), func(t *testing.T) {
			if raceEnabled && eng == protocol.EngineParallel {
				t.Skip("sync.Pool drops items at random under -race: the parallel engine's arenas are rebuilt, so the figure measures the detector")
			}
			run := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := protocol.RunOpts(g, params.K, params.L, params.Scope(), params.Alpha,
					protocol.Options{Engine: eng}); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			run() // warm the engine pool
			best := run()
			for i := 0; i < 2; i++ {
				best = min(best, run())
			}
			perNode := best / uint64(g.N())
			t.Logf("%s engine: %d bytes/run over %d nodes = %d bytes/node (budget %d)",
				eng, best, g.N(), perNode, allocBudgetPerNode[eng])
			if perNode > allocBudgetPerNode[eng] {
				t.Errorf("%s engine allocates %d bytes/node per run, budget %d",
					eng, perNode, allocBudgetPerNode[eng])
			}
		})
	}
}
