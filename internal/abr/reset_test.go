package abr

import (
	"reflect"
	"testing"

	"fivegsim/internal/trace"
)

// sevenAlgorithms builds one instance of every built-in ABR family member,
// with the trained ones (GBDT-MPC, Pensieve) fitted on a tiny training set.
func sevenAlgorithms(t *testing.T, v Video, train [][]float64) []Algorithm {
	t.Helper()
	gbdt, err := TrainGBDTPredictor(train, 4, int(v.ChunkS))
	if err != nil {
		t.Fatal(err)
	}
	pens, err := TrainPensieve(v, train, 5)
	if err != nil {
		t.Fatal(err)
	}
	return []Algorithm{
		&BBA{}, &BOLA{}, &RB{}, &FESTIVE{},
		&MPC{Label: "fastMPC"},
		&MPC{Label: "robustMPC", Robust: true, Pred: gbdt},
		pens,
	}
}

// Evaluate plays every trace through one algorithm instance, so a session
// must not see the sessions before it: an instance that has played a prior
// trace plays trace B exactly as a fresh instance does, because Simulate
// resets per-session state and trained models are read-only. The flat,
// fast prior ends mid-climb: with sixteen chunks and ten tracks its last
// chunk leaves FESTIVE one chunk into a two-chunk up-streak, which only
// Reset clears.
func TestResetIsolatesSessions(t *testing.T) {
	v, err := NewVideo(64, 4, 160, 10)
	if err != nil {
		t.Fatal(err)
	}
	train := trace.GenSet5G(2, 120, 31)
	trB := trace.Gen5GmmWave(43, 120)
	var want []Result
	for _, algo := range sevenAlgorithms(t, v, train) {
		want = append(want, Simulate(v, algo, trB, Options{}))
	}
	for p, prior := range [][]float64{trace.Gen5GmmWave(41, 120), flat(400, 120)} {
		for i, algo := range sevenAlgorithms(t, v, train) {
			Simulate(v, algo, prior, Options{})
			if got := Simulate(v, algo, trB, Options{}); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: trace B after prior %d diverges from a fresh instance:\nused  %+v\nfresh %+v",
					algo.Name(), p, got, want[i])
			}
		}
	}
}

// A reused Scratch must not leak state between playbacks: interleaving
// traces through one scratch matches fresh-scratch runs field by field
// (modulo the documented slice aliasing, which DeepEqual sees through).
func TestSimulateScratchMatchesSimulate(t *testing.T) {
	v, err := NewVideo(120, 4, 160, 6)
	if err != nil {
		t.Fatal(err)
	}
	traces := trace.GenSet5G(4, 200, 17)
	sc := &Scratch{}
	for i, tr := range traces {
		algo := &MPC{Robust: true}
		want := Simulate(v, &MPC{Robust: true}, tr, Options{})
		got := SimulateScratch(v, algo, tr, Options{}, sc)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %d: scratch run diverges:\nscratch %+v\nfresh   %+v", i, got, want)
		}
	}
	// The abandonment path shares the usage buffer; make sure it reuses
	// cleanly too.
	slow := flat(3, 400)
	want := Simulate(v, &MPC{}, slow, Options{Abandon: true})
	if got := SimulateScratch(v, &MPC{}, slow, Options{Abandon: true}, sc); !reflect.DeepEqual(got, want) {
		t.Errorf("abandon run diverges with reused scratch:\nscratch %+v\nfresh   %+v", got, want)
	}
}
