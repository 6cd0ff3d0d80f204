package experiments

import (
	"context"
	"errors"
	"testing"
)

// TestRunManyCtxCanceled: a pre-canceled context dispatches nothing and the
// error says so — a partial battery must never look complete.
func TestRunManyCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunManyCtx(ctx, Config{Seed: 1, Quick: true}, IDs(), 2)
	if err == nil {
		t.Fatal("RunManyCtx with canceled context returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want wrapped context.Canceled", err)
	}
	if results != nil {
		t.Fatalf("results = %d entries, want nil on cancellation", len(results))
	}
}

// TestRunManyCtxUnknownID: id validation still fails up front, before any
// dispatch, with or without a live context.
func TestRunManyCtxUnknownID(t *testing.T) {
	if _, err := RunManyCtx(context.Background(), Config{Seed: 1}, []string{"nope"}, 1); err == nil {
		t.Fatal("unknown id accepted")
	}
}
