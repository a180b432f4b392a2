package serve

// Goroutine-leak tests for the long-lived moving parts: the job
// store's worker pool and the dispatcher's heartbeat loop. Each test
// snapshots runtime.NumGoroutine before standing the component up,
// drives a full enqueue/cancel/drain (or probe) cycle, tears it down,
// and then polls until the count settles back to the baseline — a
// stuck worker, an un-stopped ticker, or a leaked watcher shows up as
// a count that never returns.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"positres/internal/spec"
	"positres/internal/telemetry"
)

// settleGoroutines polls until the live goroutine count drops back to
// at most base+slack, dumping all stacks on timeout. Polling (rather
// than a single check) tolerates scheduler lag and netpoll teardown.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(10 * time.Second)
	n := runtime.NumGoroutine()
	for n > base+slack {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d live, baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
}

// leakSpec is a campaign small enough to finish in milliseconds.
func leakSpec() spec.CampaignSpec {
	return spec.CampaignSpec{
		Fields: []string{"CESM/CLOUD"}, Formats: []string{"posit8"},
		N: 256, TrialsPerBit: 1, Seed: 5,
	}
}

func TestJobStoreGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	s, err := newJobStore(filepath.Join(t.TempDir(), "jobs"), 4, 1, telemetry.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.start(ctx, 2)

	// One job runs to completion.
	j, verr := s.submit(leakSpec())
	if verr != nil {
		t.Fatalf("submit: %s", verr.Message)
	}
	<-j.done

	// One job is cancelled (queued or mid-run, whichever the race
	// gives us — both paths must release their goroutines).
	j2, verr := s.submit(leakSpec())
	if verr != nil {
		t.Fatalf("submit: %s", verr.Message)
	}
	j2.cancelRun()
	<-j2.done

	// Drain: workers exit, nothing left behind.
	cancel()
	s.wait()
	settleGoroutines(t, base)
}

func TestJobStoreDrainWithQueuedJobsGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	s, err := newJobStore(filepath.Join(t.TempDir(), "jobs"), 8, 1, telemetry.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.start(ctx, 1)

	// Stack the queue deeper than the worker pool, then drain with
	// work still pending: the unfinished jobs stay stored for the
	// next process, and every worker goroutine must still exit.
	for i := 0; i < 4; i++ {
		if _, verr := s.submit(leakSpec()); verr != nil {
			t.Fatalf("submit %d: %s", i, verr.Message)
		}
	}
	cancel()
	s.wait()
	settleGoroutines(t, base)
}

func TestDispatcherHeartbeatGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))

	ctx, cancel := context.WithCancel(context.Background())
	d := newDispatcher([]string{backend.URL}, 10*time.Millisecond, time.Millisecond, telemetry.NewCluster())
	d.start(ctx)

	// Let several probe rounds run so the heartbeat loop, its ticker,
	// and the HTTP keep-alive machinery are all live.
	time.Sleep(60 * time.Millisecond)
	if d.size() != 1 {
		t.Fatalf("size = %d, want 1", d.size())
	}

	cancel()
	backend.Close() // drops keep-alive conns so transport readers exit
	settleGoroutines(t, base)
}
