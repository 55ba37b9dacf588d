package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// BenchmarkDistDispatch measures end-to-end coordinator overhead: one job
// dispatched across an in-process 4-worker fleet (claim/execute/report via
// the direct CoordinatorAPI, no HTTP), relative to the trivial toy core.
func BenchmarkDistDispatch(b *testing.B) {
	const fleet = 4
	cores := func(kind string, _ json.RawMessage) (Core, error) {
		return toyCore(1), nil
	}
	for i := 0; i < b.N; i++ {
		c := NewCoordinator(Config{LeaseTTL: 10 * time.Second, UnitShards: 2})
		ctx, cancel := context.WithCancel(context.Background())
		for w := 0; w < fleet; w++ {
			admit(c, fmt.Sprintf("w%d", w))
		}
		var wg sync.WaitGroup
		for wid := 0; wid < fleet; wid++ {
			w, err := NewWorker(WorkerConfig{
				ID: fmt.Sprintf("w%d", wid), Coordinator: c, Cores: cores,
				PollInterval: time.Millisecond, Seed: int64(wid + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.Run(ctx)
			}()
		}
		if _, _, err := c.Execute(ctx, "toy", "bench", nil, toyCore(1), toyPlan); err != nil {
			b.Fatal(err)
		}
		cancel()
		wg.Wait()
	}
}

// BenchmarkDistFold measures the coordinator-side fold path alone:
// decoding and folding pre-computed unit results in shard order.
func BenchmarkDistFold(b *testing.B) {
	core := toyCore(1)
	n := toyPlan.NumShards()
	states, events, err := core.RunWindow(context.Background(), toyPlan, 0, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := core.newFold(toyPlan)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < n; k++ {
			if _, err := f.add(states[k], events[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
