package simnet_test

import (
	"fmt"
	"runtime"
	"testing"

	"bfskel/internal/simnet"
)

// scratchBase is the batch length every scratchProgram builds at Init, so
// each buffer behind Context.Scratch has grown to at least this capacity
// before round 1.
const scratchBase = 1000

// scratchProgram builds node-specific batches in the shared scratch buffer
// — one at Init (tag 0) and one at its first Step (tag 1) — and checks
// every batch it receives word by word against the sender's pattern.
type scratchProgram struct {
	stepped bool
	got     int
	errs    []string
}

// scratchBatch is node from's tag-t batch: its length and its j-th word.
func scratchBatch(from, t int) (n int, word func(j int) uint64) {
	n = scratchBase + from
	if t == 1 {
		n = scratchBase/2 + from
	}
	return n, func(j int) uint64 { return uint64(t)<<63 | uint64(from)<<32 | uint64(j) }
}

func (p *scratchProgram) send(ctx *simnet.Context, t int) {
	buf := ctx.Scratch()
	if len(*buf) != 0 {
		p.errs = append(p.errs, fmt.Sprintf("node %d: Scratch returned %d words, want an empty buffer", ctx.ID(), len(*buf)))
	}
	n, word := scratchBatch(ctx.ID(), t)
	for j := 0; j < n; j++ {
		*buf = append(*buf, word(j))
	}
	ctx.BroadcastPacked(9, *buf)
}

func (p *scratchProgram) Init(ctx *simnet.Context) { p.send(ctx, 0) }

func (p *scratchProgram) Step(ctx *simnet.Context, inbox []simnet.Envelope) {
	for _, env := range inbox {
		kind, ws, ok := env.Packed()
		if !ok || kind != 9 || len(ws) == 0 {
			p.errs = append(p.errs, fmt.Sprintf("node %d: unexpected message from %d", ctx.ID(), env.From))
			continue
		}
		t := int(ws[0] >> 63)
		n, word := scratchBatch(env.From, t)
		if len(ws) != n {
			p.errs = append(p.errs, fmt.Sprintf("node %d: tag-%d batch from %d has %d words, want %d", ctx.ID(), t, env.From, len(ws), n))
			continue
		}
		for j, w := range ws {
			if w != word(j) {
				p.errs = append(p.errs, fmt.Sprintf("node %d: tag-%d batch from %d: word %d = %#x, want %#x", ctx.ID(), t, env.From, j, w, word(j)))
				break
			}
		}
		p.got++
	}
	if !p.stepped {
		p.stepped = true
		// Every buffer grew to scratchBase words at Init; the capacity must
		// have carried over to this round.
		if c := cap(*ctx.Scratch()); c < scratchBase {
			p.errs = append(p.errs, fmt.Sprintf("node %d: scratch capacity %d after Init, want >= %d", ctx.ID(), c, scratchBase))
		}
		p.send(ctx, 1)
	}
}

// TestContextScratch checks the Context.Scratch contract on both engines,
// with and without jitter: consecutive nodes of one stepping chunk build
// their batches in the same buffer, yet every receiver gets exactly its
// sender's words (sends copy the batch out), and capacity grown by append
// persists from one step to the next.
func TestContextScratch(t *testing.T) {
	// At least eight consecutive nodes per parallel chunk.
	g := line(8*runtime.GOMAXPROCS(0) + 8)
	wantGot := 0
	for v := 0; v < g.N(); v++ {
		wantGot += 2 * g.Degree(v)
	}
	for _, eng := range []simnet.Engine{simnet.EngineSerial, simnet.EngineParallel} {
		for _, jitter := range []int{0, 2} {
			t.Run(fmt.Sprintf("%v/jitter=%d", eng, jitter), func(t *testing.T) {
				programs, _, err := runEngine(t, g, func() []simnet.Program {
					ps := make([]simnet.Program, g.N())
					for i := range ps {
						ps[i] = &scratchProgram{}
					}
					return ps
				}, eng, jitter, 0)
				if err != nil {
					t.Fatal(err)
				}
				got := 0
				for _, p := range programs {
					sp := p.(*scratchProgram)
					for _, e := range sp.errs {
						t.Error(e)
					}
					got += sp.got
				}
				if got != wantGot {
					t.Errorf("verified %d deliveries, want %d", got, wantGot)
				}
			})
		}
	}
}
