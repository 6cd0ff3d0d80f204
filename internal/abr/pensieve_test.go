package abr

import (
	"testing"

	"fivegsim/internal/trace"
)

func TestTrainPensieveValidation(t *testing.T) {
	v := video4G(t)
	if _, err := TrainPensieve(v, nil, 1); err == nil {
		t.Error("training with no traces did not error")
	}
}

func TestPensieve4GCompetitive(t *testing.T) {
	// §5.2: Pensieve is competitive with the MPC family on 4G (the paper
	// reports it winning there by a slim margin).
	v := video4G(t)
	p, err := TrainPensieve(v, trace.GenSet4G(30, 320, 99), 7)
	if err != nil {
		t.Fatal(err)
	}
	eval := trace.GenSet4G(30, 320, 1)
	gp := Evaluate(v, p, eval, Options{})
	gm := Evaluate(v, &MPC{}, eval, Options{})
	if gp.MeanQoE < 0.85*gm.MeanQoE {
		t.Errorf("Pensieve 4G QoE %v far below fastMPC %v", gp.MeanQoE, gm.MeanQoE)
	}
	if gp.NormBitrate < 0.85 {
		t.Errorf("Pensieve 4G bitrate %v, want near top", gp.NormBitrate)
	}
}

func TestPensieveWorstStallsOn5G(t *testing.T) {
	// §5.2: Pensieve incurs the highest stall time under 5G (a 259.5%
	// increase in the paper) despite high bitrates.
	v5 := video5G(t)
	p5, err := TrainPensieve(v5, trace.GenSet5G(30, 320, 99), 7)
	if err != nil {
		t.Fatal(err)
	}
	eval := trace.GenSet5G(30, 320, 1)
	gp := Evaluate(v5, p5, eval, Options{})
	others := []Algorithm{&BBA{}, &RB{}, &BOLA{}, &MPC{Robust: true}, &FESTIVE{}}
	for _, a := range others {
		g := Evaluate(v5, a, eval, Options{})
		if gp.StallPct <= g.StallPct {
			t.Errorf("Pensieve 5G stalls %v not above %s's %v", gp.StallPct, a.Name(), g.StallPct)
		}
	}
	if gp.NormBitrate < 0.85 {
		t.Errorf("Pensieve 5G bitrate %v, want aggressive (near top)", gp.NormBitrate)
	}
	// And its QoE stays within a few percent of fastMPC (the paper's
	// "marginal improvement" finding, inverted tolerance both ways).
	gm := Evaluate(v5, &MPC{}, eval, Options{})
	if gp.MeanQoE < 0.85*gm.MeanQoE || gp.MeanQoE > 1.15*gm.MeanQoE {
		t.Errorf("Pensieve 5G QoE %v not within 15%% of fastMPC %v", gp.MeanQoE, gm.MeanQoE)
	}
}

func TestPensieveStallIncrease4GTo5G(t *testing.T) {
	v4, v5 := video4G(t), video5G(t)
	p4, err := TrainPensieve(v4, trace.GenSet4G(30, 320, 99), 7)
	if err != nil {
		t.Fatal(err)
	}
	p5, err := TrainPensieve(v5, trace.GenSet5G(30, 320, 99), 7)
	if err != nil {
		t.Fatal(err)
	}
	g4 := Evaluate(v4, p4, trace.GenSet4G(30, 320, 1), Options{})
	g5 := Evaluate(v5, p5, trace.GenSet5G(30, 320, 1), Options{})
	if g5.StallPct <= g4.StallPct {
		t.Errorf("Pensieve stalls did not worsen on 5G: %v vs %v", g5.StallPct, g4.StallPct)
	}
}

func TestPensieveDeterministicGivenSeed(t *testing.T) {
	v := video4G(t)
	traces := trace.GenSet4G(10, 320, 5)
	a, err := TrainPensieve(v, traces, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainPensieve(v, traces, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Gen4G(77, 400)
	ra := Simulate(v, a, tr, Options{})
	rb := Simulate(v, b, tr, Options{})
	if ra.QoE != rb.QoE {
		t.Error("Pensieve training not deterministic for equal seeds")
	}
}

func TestPensieveStateFeatures(t *testing.T) {
	v := video5G(t)
	ctx := &Context{Video: v, BufferS: 10, LastQuality: 5,
		PastChunkMbps:  []float64{100, 200},
		PastChunkTimeS: []float64{2, 3}}
	st := pensieveState(ctx)
	if len(st) != stateDim {
		t.Fatalf("state width %d, want %d", len(st), stateDim)
	}
	if st[0] != 1.0 { // top track normalised
		t.Errorf("lastQ feature = %v", st[0])
	}
	if st[1] != 1.0 { // buffer/10
		t.Errorf("buffer feature = %v", st[1])
	}
	// Throughput lags right-aligned: the two known values at the end.
	if st[2+thrptLags-1] != 200.0/160 || st[2+thrptLags-2] != 100.0/160 {
		t.Errorf("throughput lags misaligned: %v", st)
	}
	if st[2+thrptLags] != 0.3 { // last download time / 10
		t.Errorf("download-time feature = %v", st[2+thrptLags])
	}
}
