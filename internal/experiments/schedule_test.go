package experiments

import "testing"

func TestScheduleOrderLongestFirst(t *testing.T) {
	ids := []string{"fig10", "fig18a", "brand-new-experiment", "fig24", "fig17"}
	order := scheduleOrder(ids)
	if len(order) != len(ids) {
		t.Fatalf("order has %d entries, want %d", len(order), len(ids))
	}
	seen := make(map[int]bool)
	for _, i := range order {
		if i < 0 || i >= len(ids) || seen[i] {
			t.Fatalf("order %v is not a permutation of 0..%d", order, len(ids)-1)
		}
		seen[i] = true
	}
	// The recorded long poles lead; an unmeasured id gets the mid-queue
	// default and the fastest known experiment goes last.
	want := []string{"fig17", "fig24", "fig18a", "brand-new-experiment", "fig10"}
	for k, i := range order {
		if ids[i] != want[k] {
			t.Fatalf("dispatch order %v, want %v", idsOf(ids, order), want)
		}
	}
}

func idsOf(ids []string, order []int) []string {
	out := make([]string, len(order))
	for k, i := range order {
		out[k] = ids[i]
	}
	return out
}

// Every registered experiment should carry a recorded weight; a missing
// entry silently falls back to the default and erodes the LPT schedule, so
// flag drift between the registry and the weight table.
func TestScheduleWeightsCoverRegistry(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := expectedWallMs[id]; !ok {
			switch id {
			// Not in the recorded battery run (composite/alias entries).
			case "all":
			default:
				t.Errorf("experiment %q has no expectedWallMs entry (add one from serial fgrepro -stats runs)", id)
			}
		}
	}
}
