package experiments

import (
	"reflect"
	"sort"
	"testing"

	"fivegsim/internal/fleet"
	"fivegsim/internal/stats"
)

// TestFleetTableRadixRows renders exact-mode campaigns above the radix
// sort's threshold, of three sizes so the reused column and key buffers
// shrink and grow between mixes, and checks every row against the
// percentiles and mean of a sort.Float64s-sorted copy of its column. The
// goldens' 403- and 900-UE campaigns stay below the threshold.
func TestFleetTableRadixRows(t *testing.T) {
	var rs []*fleet.Result
	var want [][]string
	for i, mix := range fleet.AllMixes {
		r, err := fleet.Run(fleet.Config{Seed: 3, UEs: []int{3000, 1200, 2000}[i], Mix: mix, WindowS: 120})
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
		cols := map[string][]float64{}
		for _, u := range r.UEs {
			cols["tput Mbps"] = append(cols["tput Mbps"], u.MeanMbps)
			cols["QoE/chunk"] = append(cols["QoE/chunk"], u.QoE)
			cols["energy J"] = append(cols["energy J"], u.EnergyJ)
			cols["stall s"] = append(cols["stall s"], u.StallS)
		}
		for _, metric := range []string{"tput Mbps", "QoE/chunk", "energy J", "stall s"} {
			xs := cols[metric]
			sort.Float64s(xs)
			row := []string{mix.String(), metric}
			for _, p := range []float64{5, 25, 50, 75, 95} {
				row = append(row, f1(stats.PercentileSorted(xs, p)))
			}
			want = append(want, append(row, f1(stats.Mean(xs))))
		}
	}
	if got := FleetTable(rs).Rows; !reflect.DeepEqual(got, want) {
		t.Errorf("FleetTable rows differ from sort.Float64s rows:\ngot  %q\nwant %q", got, want)
	}
}
