package runner_test

// Runnable godoc examples for durable job submission. These compile
// and execute under `go test`, so the snippets embedded in
// docs/SERVICE.md and docs/RESILIENCE.md cannot rot.

import (
	"context"
	"fmt"
	"os"

	"positres/internal/runner"
	"positres/internal/spec"
)

// ExampleRun submits a tiny durable campaign job: one canonical
// CampaignSpec expanded to a single (field, codec) pair, stored
// under a state directory so an interrupted run could be resumed with
// Config.Resume. The output is deterministic because every trial
// draws from a PRNG stream keyed by (seed, field, codec, bit, trial).
func ExampleRun() {
	dir, err := os.MkdirTemp("", "runner-example")
	if err != nil {
		fmt.Println("tempdir:", err)
		return
	}
	defer os.RemoveAll(dir)

	cfg := runner.Config{
		Spec: &spec.CampaignSpec{
			Fields:       []string{"CESM/CLOUD"},
			Formats:      []string{"posit8"},
			N:            256,
			Seed:         1,
			TrialsPerBit: 2,
		},
		Dir:     dir, // stores + manifest live here; "" would disable durability
		Workers: 2,
	}

	rep, err := runner.Run(context.Background(), cfg)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Println("outcome:", rep.Outcome())
	fmt.Println("shards completed:", rep.Completed)
	fmt.Println("trials:", len(rep.Results[0].Trials))

	// The manifest a supervisor would poll:
	man, err := runner.ReadManifest(dir)
	if err != nil {
		fmt.Println("manifest:", err)
		return
	}
	fmt.Println("manifest state:", man.State)
	// Output:
	// outcome: complete
	// shards completed: 1
	// trials: 16
	// manifest state: complete
}
