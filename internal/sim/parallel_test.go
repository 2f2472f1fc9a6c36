package sim

import (
	"reflect"
	"sync"
	"testing"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/workload"
)

// TestSetParallelismResizeMidSuite hammers SetParallelism while suites are
// in flight, in both engine forms (monolithic and segmented), against the
// Run oracle. Under -race this checks the eager channel
// rebuild: units acquired before a resize must release into the channel
// they drew from while new acquisitions see the new width, with no data
// race on the pool and no lost slots (a lost slot would deadlock a later
// acquire and hang the test).
func TestSetParallelismResizeMidSuite(t *testing.T) {
	defer SetParallelism(0)
	defer AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()
	AnnotatedTier.Reset()

	cfg := SuiteConfig{Branches: 3000, Specs: workload.Suite()[:4]}
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	newMechs := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperResetting() },
		func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) },
	}

	segCfg := cfg
	segCfg.SegmentBranches = 1000
	want := oracleSuite(t, cfg.Specs, cfg.Branches, "gshare-64K", uncoupled(newMechs))
	SetParallelism(2)

	stop := make(chan struct{})
	var resizer sync.WaitGroup
	resizer.Add(1)
	go func() {
		defer resizer.Done()
		sizes := []int{1, 3, 2, 8, 1, 4}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				SetParallelism(sizes[i%len(sizes)])
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				var got []SuiteResult
				var err error
				if (g+iter)%2 == 0 {
					got, err = RunSuiteAnnotated(segCfg, "gshare-64K", newPred, newMechs)
				} else {
					got, err = RunSuiteAnnotated(cfg, "gshare-64K", newPred, newMechs)
				}
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, iter, err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d iter %d: resize changed results", g, iter)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	resizer.Wait()

	// The pool must still be functional at whatever width won the race.
	after, err := RunSuiteAnnotated(segCfg, "gshare-64K", newPred, newMechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, want) {
		t.Fatal("post-resize suite diverges")
	}
}
