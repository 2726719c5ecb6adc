package target

import (
	"testing"

	"goofi/internal/obsv"
	"goofi/internal/workload"
)

// armThor initialises a Thor target and arms the bubblesort workload.
func armThor(t *testing.T, ops Operations) workload.Spec {
	t.Helper()
	w, err := workload.Get("bubblesort")
	if err != nil {
		t.Fatal(err)
	}
	if err := ops.InitTestCard(); err != nil {
		t.Fatal(err)
	}
	if err := ops.LoadWorkload(w); err != nil {
		t.Fatal(err)
	}
	if err := ops.RunWorkload(); err != nil {
		t.Fatal(err)
	}
	return w
}

// runTo drives the target to the given cycle via the debug breakpoint.
func runTo(t *testing.T, ops Operations, cycle, maxCycles uint64) {
	t.Helper()
	if err := ops.SetBreakpoint(cycle); err != nil {
		t.Fatal(err)
	}
	hit, err := ops.WaitForBreakpoint(maxCycles)
	if err != nil || !hit {
		t.Fatalf("breakpoint at %d: hit=%v err=%v", cycle, hit, err)
	}
}

// finalState runs to termination and returns the outcome plus result words.
func finalState(t *testing.T, ops Operations, w workload.Spec) (Termination, []uint32) {
	t.Helper()
	term, err := ops.WaitForTermination(TerminationSpec{
		MaxCycles: w.MaxCycles, MaxIterations: w.MaxIterations})
	if err != nil {
		t.Fatal(err)
	}
	var words []uint32
	for _, addr := range w.ResultAddrs {
		vs, err := ops.ReadMemory(addr, 1)
		if err != nil {
			t.Fatal(err)
		}
		words = append(words, vs...)
	}
	return term, words
}

// TestThorCheckpointStore exercises the multi-slot store on one instance:
// save at several cycles, restore by id, and re-execution from a restored
// checkpoint reproduces the uninterrupted outcome.
func TestThorCheckpointStore(t *testing.T) {
	tt := NewDefaultThorTarget()
	w := armThor(t, tt)

	runTo(t, tt, 100, w.MaxCycles)
	if err := tt.SaveCheckpointAt(100); err != nil {
		t.Fatal(err)
	}
	firstBytes := tt.CheckpointBytes()
	if firstBytes <= 0 {
		t.Fatal("no bytes accounted after first save")
	}
	runTo(t, tt, 600, w.MaxCycles)
	if err := tt.SaveCheckpointAt(600); err != nil {
		t.Fatal(err)
	}
	// The second snapshot is a delta against the first's full image: it must
	// cost far less than another full image.
	if delta := tt.CheckpointBytes() - firstBytes; delta <= 0 || delta >= firstBytes/2 {
		t.Errorf("delta snapshot cost %d bytes (full image: %d)", delta, firstBytes)
	}

	wantTerm, wantWords := finalState(t, tt, w)

	// Restore mid-run state and re-execute: identical outcome.
	for _, id := range []uint64{100, 600} {
		ok, err := tt.RestoreCheckpointAt(id)
		if err != nil || !ok {
			t.Fatalf("restore %d: ok=%v err=%v", id, ok, err)
		}
		if got := tt.System().CPU.Cycles(); got != id {
			t.Fatalf("restored cycle count = %d, want %d", got, id)
		}
		term, words := finalState(t, tt, w)
		if term != wantTerm {
			t.Fatalf("termination after restore %d = %+v, want %+v", id, term, wantTerm)
		}
		for i := range words {
			if words[i] != wantWords[i] {
				t.Fatalf("result word %d after restore %d = %#x, want %#x", i, id, words[i], wantWords[i])
			}
		}
	}

	if ok, _ := tt.RestoreCheckpointAt(42); ok {
		t.Fatal("restore of an unsaved id succeeded")
	}
	tt.DropCheckpointAt(100)
	if ok, _ := tt.RestoreCheckpointAt(100); ok {
		t.Fatal("restore of a dropped id succeeded")
	}
	tt.DropCheckpoints()
	if tt.CheckpointBytes() != 0 {
		t.Fatalf("bytes after DropCheckpoints = %d", tt.CheckpointBytes())
	}
}

// TestThorCheckpointExportImport pins snapshot portability: a checkpoint
// exported from one instance restores byte-equivalently on a sibling minted
// from the same configuration.
func TestThorCheckpointExportImport(t *testing.T) {
	src := NewDefaultThorTarget()
	w := armThor(t, src)
	runTo(t, src, 400, w.MaxCycles)
	if err := src.SaveCheckpointAt(400); err != nil {
		t.Fatal(err)
	}
	wantTerm, wantWords := finalState(t, src, w)

	snap, ok := src.ExportCheckpoint(400)
	if !ok {
		t.Fatal("export failed")
	}
	dst := NewDefaultThorTarget()
	// Import before initialisation must be legal.
	if err := dst.ImportCheckpoint(400, snap); err != nil {
		t.Fatal(err)
	}
	armThor(t, dst)
	ok, err := dst.RestoreCheckpointAt(400)
	if err != nil || !ok {
		t.Fatalf("restore on sibling: ok=%v err=%v", ok, err)
	}
	term, words := finalState(t, dst, w)
	if term != wantTerm {
		t.Fatalf("sibling termination = %+v, want %+v", term, wantTerm)
	}
	for i := range words {
		if words[i] != wantWords[i] {
			t.Fatalf("sibling result word %d = %#x, want %#x", i, words[i], wantWords[i])
		}
	}

	if err := dst.ImportCheckpoint(1, "not a snapshot"); err == nil {
		t.Fatal("foreign snapshot accepted")
	}
}

// TestSimpleCheckpointStore covers the accumulator target's store.
func TestSimpleCheckpointStore(t *testing.T) {
	st := NewSimpleTarget()
	if err := st.InitTestCard(); err != nil {
		t.Fatal(err)
	}
	w := SimpleChecksumWorkload()
	if err := st.LoadWorkload(w); err != nil {
		t.Fatal(err)
	}
	if err := st.RunWorkload(); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpointAt(0); err != nil {
		t.Fatal(err)
	}
	if st.CheckpointBytes() <= 0 {
		t.Fatal("no bytes accounted")
	}
	term1, err := st.WaitForTermination(TerminationSpec{MaxCycles: w.MaxCycles})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := st.ReadMemory(w.ResultAddrs[0], 1)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt memory, restore, re-run: same checksum.
	if err := st.WriteMemory(w.ResultAddrs[0], []uint32{0xDEAD}); err != nil {
		t.Fatal(err)
	}
	ok, err := st.RestoreCheckpointAt(0)
	if err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	term2, err := st.WaitForTermination(TerminationSpec{MaxCycles: w.MaxCycles})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := st.ReadMemory(w.ResultAddrs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if term1 != term2 || r1[0] != r2[0] {
		t.Fatalf("restored re-run diverged: %+v/%#x vs %+v/%#x", term1, r1[0], term2, r2[0])
	}

	// Export/import across siblings.
	snap, ok := st.ExportCheckpoint(0)
	if !ok {
		t.Fatal("export failed")
	}
	sib := NewSimpleTarget()
	if err := sib.ImportCheckpoint(0, snap); err != nil {
		t.Fatal(err)
	}
	if ok, err := sib.RestoreCheckpointAt(0); err != nil || !ok {
		t.Fatalf("sibling restore: ok=%v err=%v", ok, err)
	}
	if err := sib.ImportCheckpoint(1, 3.14); err == nil {
		t.Fatal("foreign snapshot accepted")
	}
}

// TestAsCheckpointStore pins the probe semantics: wrappers answer for their
// inner target, and the returned store is the outermost layer.
func TestAsCheckpointStore(t *testing.T) {
	rec := obsv.New(obsv.Options{})
	thorT := NewDefaultThorTarget()

	if _, ok := AsCheckpointStore(thorT); !ok {
		t.Error("bare ThorTarget must probe true")
	}
	m := NewMeasured(thorT, rec)
	if cs, ok := AsCheckpointStore(m); !ok {
		t.Error("Measured(Thor) must probe true")
	} else if _, isMeasured := cs.(*Measured); !isMeasured {
		t.Error("probe must return the outermost layer")
	}
	f := NewFlaky(m, FlakyConfig{})
	if cs, ok := AsCheckpointStore(f); !ok {
		t.Error("Flaky(Measured(Thor)) must probe true")
	} else if _, isFlaky := cs.(*Flaky); !isFlaky {
		t.Error("probe must return the outermost layer")
	}

	if _, ok := AsCheckpointStore(measuredStub{}); ok {
		t.Error("capability-free target must probe false")
	}
	if _, ok := AsCheckpointStore(NewMeasured(measuredStub{}, rec)); ok {
		t.Error("Measured(stub) must probe false: the capability is not real underneath")
	}
	if _, ok := AsCheckpointStore(NewFlaky(measuredStub{}, FlakyConfig{})); ok {
		t.Error("Flaky(stub) must probe false")
	}
}

// TestDropCheckpointsClearsLegacySlot pins why the campaign engine needs no
// separate ClearCheckpoint call: the single-slot Checkpointer snapshot lives
// in the CheckpointStore, so DropCheckpoints discards it too — directly and
// through the Measured wrapper.
func TestDropCheckpointsClearsLegacySlot(t *testing.T) {
	for _, ops := range []Operations{
		NewDefaultThorTarget(),
		NewMeasured(NewDefaultThorTarget(), obsv.New(obsv.Options{})),
	} {
		armThor(t, ops)
		cp := ops.(Checkpointer)
		if err := cp.SaveCheckpoint(); err != nil {
			t.Fatal(err)
		}
		cs, ok := AsCheckpointStore(ops)
		if !ok {
			t.Fatalf("%T has no checkpoint store", ops)
		}
		cs.DropCheckpoints()
		if ok, err := cp.RestoreCheckpoint(); err != nil || ok {
			t.Fatalf("%T: restore after DropCheckpoints = %v, %v; want false, nil", ops, ok, err)
		}
	}
}
