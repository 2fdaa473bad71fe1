package transport

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestCostModelTransferTime(t *testing.T) {
	c := CostModel{LatencyPerMsg: 2 * time.Millisecond, BytesPerSec: 1e6}
	// 1 MB at 1 MB/s = 1 s, plus 2 ms latency.
	if got := c.TransferTime(1e6); got != time.Second+2*time.Millisecond {
		t.Errorf("TransferTime(1e6) = %v", got)
	}
	if got := (CostModel{}).TransferTime(1e9); got != 0 {
		t.Errorf("zero model accounted %v", got)
	}
}

// TestConcurrentExchangesExact: exchanges that share one client each get
// exactly a lone call's Delta — bytes each way and their modeled transfer
// time — however their calls interleave.
func TestConcurrentExchangesExact(t *testing.T) {
	cost := CostModel{LatencyPerMsg: time.Millisecond, BytesPerSec: 1e6}
	h := newEchoHandler()
	c := newReconnector("s", func() (Client, error) { return dialPipe("s", h, cost), nil }, 1, 0, nil, nil)
	defer c.Close()
	req := &Request{Op: OpLoad, Rel: "t", Data: sampleRelation(20)}
	_, lone, err := Exchange(context.Background(), c, req)
	if err != nil {
		t.Fatal(err)
	}
	if want := cost.TransferTime(int(lone.Sent)) + cost.TransferTime(int(lone.Recv)); lone.Sent <= 0 || lone.Recv <= 0 || lone.Comm != want {
		t.Fatalf("lone delta = %+v, want traffic both ways and comm %v", lone, want)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, d, err := Exchange(context.Background(), c, req)
				if err != nil {
					t.Error(err)
					return
				}
				if d != lone {
					t.Errorf("exchange %d: delta = %+v, want a lone call's %+v", i, d, lone)
					return
				}
			}
		}()
	}
	wg.Wait()
}
