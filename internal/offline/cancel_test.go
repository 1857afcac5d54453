package offline

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// cancelN is large enough that the interval DP cannot complete between the
// goroutine starting and the cancel landing (n(n+1)/2 = 8M cells, tens of
// milliseconds), so the cancel always interrupts a running computation.
const cancelN = 4000

// runCanceled starts ComputeTables on a big instance, cancels the context
// almost immediately, and returns the error along with how long the call
// took to come back after the cancel.
func runCanceled(t *testing.T) (error, time.Duration) {
	t.Helper()
	times := randomTimes(rand.New(rand.NewSource(5)), cancelN, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := ComputeTables(ctx, times, ReceiveTwo, wide, 1)
		errc <- err
	}()
	time.Sleep(time.Millisecond)
	canceledAt := time.Now()
	cancel()
	select {
	case err := <-errc:
		return err, time.Since(canceledAt)
	case <-time.After(30 * time.Second):
		t.Fatal("ComputeTables did not return after cancel")
		return nil, 0
	}
}

// TestComputeTablesCancel proves the acceptance property: a running offline
// DP aborts promptly (within one work unit, one column) once ctx is done,
// returns an error satisfying errors.Is(err, context.Canceled), and leaks
// no goroutines.
func TestComputeTablesCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	err, wait := runCanceled(t)
	if err == nil {
		t.Fatal("ComputeTables returned nil after cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	// One work unit is a fraction of the full DP (thousands of columns);
	// 5s is an extremely generous bound for it on any machine, while the
	// full n=4000 DP being aborted is what's measured here.
	if wait > 5*time.Second {
		t.Fatalf("returned %v after cancel, want well under one DP", wait)
	}
	// ComputeTables starts no goroutine, so none may be left over.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines before, %d after cancel (goroutine leaked)", before, got)
	}
}

// TestComputeTablesPreCanceled pins the fast path: an already-canceled
// context returns before any table is allocated.
func TestComputeTablesPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	times := randomTimes(rand.New(rand.NewSource(6)), 50, 10)
	if _, err := ComputeTables(ctx, times, ReceiveTwo, wide, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ComputeTables error = %v, want context.Canceled", err)
	}
}

// TestOptimalForestCancel checks the cancellation surfaces through the
// forest-level API unchanged.
func TestOptimalForestCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	times := randomTimes(rand.New(rand.NewSource(8)), 80, 10)
	if _, err := OptimalForest(ctx, times, 5, ReceiveTwo); !errors.Is(err, context.Canceled) {
		t.Fatalf("OptimalForest error = %v, want context.Canceled", err)
	}
}
