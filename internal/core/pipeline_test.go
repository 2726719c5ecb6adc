package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goofi/internal/dbase"
	"goofi/internal/target"
)

// blockingStore holds its first PutExperiments call until release is closed
// and records the experiment names every call carried.
type blockingStore struct {
	CampaignStore
	release chan struct{}

	mu    sync.Mutex
	calls [][]string
}

func (s *blockingStore) PutExperiments(rows []dbase.ExperimentRow) error {
	names := make([]string, len(rows))
	for i, row := range rows {
		names[i] = row.ExperimentName
	}
	s.mu.Lock()
	first := len(s.calls) == 0
	s.calls = append(s.calls, names)
	s.mu.Unlock()
	if first {
		<-s.release
	}
	return s.CampaignStore.PutExperiments(rows)
}

// blocked reports how many experiment rows the first, blocked commit
// carries, once it has started.
func (s *blockingStore) blocked() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.calls) == 0 {
		return 0, false
	}
	return experimentsIn(s.calls[0]), true
}

// experimentsIn counts the experiment rows of one commit, the reference row
// excluded.
func experimentsIn(names []string) int {
	n := 0
	for _, name := range names {
		if !strings.HasSuffix(name, RefSuffix) {
			n++
		}
	}
	return n
}

// TestCommitStageDoesNotStallExecutors blocks the store's first commit and
// requires the executors to keep going: progress advances more than W
// experiments past the blocked commit while it is stuck, and once released
// the next commit carries every row that arrived in the meantime. The rows
// match an unblocked run.
func TestCommitStageDoesNotStallExecutors(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("W%d", workers), func(t *testing.T) {
			c := scifiCampaign(fmt.Sprintf("commit-stall-%d", workers), 12)
			c.Workers = workers
			factory := func(r *Runner) { r.Factory = target.DefaultThorFactory() }
			_, want := runCampaign(t, c, factory)

			ops, store := newEnv(t)
			bs := &blockingStore{CampaignStore: store, release: make(chan struct{})}
			r := NewRunner(ops, bs, c)
			factory(r)
			var releaseOnce sync.Once
			release := func() { releaseOnce.Do(func() { close(bs.release) }) }
			// A stalling engine never gets W experiments past the blocked
			// commit; the timer then unblocks the store so the test fails
			// instead of hanging.
			var timedOut atomic.Bool
			timer := time.AfterFunc(10*time.Second, func() {
				timedOut.Store(true)
				release()
			})
			defer timer.Stop()
			doneAtRelease := -1
			r.OnProgress = func(p Progress) {
				if strings.HasPrefix(p.LastOutcome, "reference") {
					// Executors start after this tick: wait until the
					// reference row's commit is in flight (and blocked),
					// so it is the commit they must not wait for.
					for _, ok := bs.blocked(); !ok; _, ok = bs.blocked() {
						time.Sleep(time.Millisecond)
					}
					return
				}
				if base, ok := bs.blocked(); ok && doneAtRelease < 0 && p.Done > base+workers {
					doneAtRelease = p.Done
					release()
				}
			}
			if _, err := r.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if timedOut.Load() || doneAtRelease < 0 {
				t.Fatalf("progress never got %d experiments past the blocked commit", workers)
			}
			if len(bs.calls) < 2 {
				t.Fatalf("store saw %d PutExperiments calls, want the blocked one and its successor", len(bs.calls))
			}
			if got := experimentsIn(bs.calls[0]) + experimentsIn(bs.calls[1]); got < doneAtRelease {
				t.Fatalf("first two commits carried %d experiments (%d + %d), want every one of the %d concluded before the release",
					got, experimentsIn(bs.calls[0]), experimentsIn(bs.calls[1]), doneAtRelease)
			}
			requireSameRows(t, want, campaignRows(t, store, c.Name), "blocked commit")
		})
	}
}
