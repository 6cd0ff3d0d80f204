package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMLPValidation(t *testing.T) {
	if _, err := NewMLP(1, 4); err == nil {
		t.Error("single-width MLP did not error")
	}
	if _, err := NewMLP(1, 4, 0, 2); err == nil {
		t.Error("zero-width layer did not error")
	}
	m, err := NewMLP(1, 3, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out := m.sizes[len(m.sizes)-1][1]; m.NumInputs() != 3 || out != 2 {
		t.Errorf("dims = %d/%d", m.NumInputs(), out)
	}
}

func TestForwardDeterministicAndShaped(t *testing.T) {
	m, _ := NewMLP(7, 4, 16, 3)
	x := []float64{0.1, -0.5, 0.3, 1.0}
	actsA := make([][]float64, len(m.sizes)+1)
	actsB := make([][]float64, len(m.sizes)+1)
	m.forwardInto(actsA, x)
	m.forwardInto(actsB, x)
	a, b := actsA[len(actsA)-1], actsB[len(actsB)-1]
	if len(a) != 3 {
		t.Fatalf("output width %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("forward not deterministic")
		}
	}
}

func TestForwardPanicsOnBadInput(t *testing.T) {
	m, _ := NewMLP(7, 4, 8, 2)
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong input width")
		}
	}()
	NewPolicy(m, 1).Greedy([]float64{1, 2})
}

func TestSoftmax(t *testing.T) {
	p := softmaxInto(nil, []float64{1, 1, 1})
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Errorf("uniform softmax = %v", p)
		}
	}
	// Stability under huge logits.
	p = softmaxInto(p, []float64{1000, 999})
	if len(p) != 2 || math.IsNaN(p[0]) || p[0] <= p[1] {
		t.Errorf("big-logit softmax = %v", p)
	}
}

func TestSoftmaxSumsToOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		logits := make([]float64, rng.Intn(8)+1)
		for i := range logits {
			logits[i] = rng.NormFloat64() * 10
		}
		s := 0.0
		for _, v := range softmaxInto(nil, logits) {
			if v < 0 || v > 1 {
				return false
			}
			s += v
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolicySampleMatchesProbs(t *testing.T) {
	m, _ := NewMLP(3, 2, 8, 3)
	p := NewPolicy(m, 9)
	state := []float64{0.5, -0.2}
	probs := append([]float64(nil), p.probsFor(state)...)
	counts := make([]int, 3)
	n := 20000
	for i := 0; i < n; i++ {
		counts[p.Sample(state)]++
	}
	for a := range probs {
		emp := float64(counts[a]) / float64(n)
		if math.Abs(emp-probs[a]) > 0.02 {
			t.Errorf("action %d: empirical %v vs prob %v", a, emp, probs[a])
		}
	}
	// Greedy picks the max-probability action.
	g := p.Greedy(state)
	for a := range probs {
		if probs[a] > probs[g] {
			t.Error("Greedy did not pick the argmax")
		}
	}
}

func TestStepValidation(t *testing.T) {
	m, _ := NewMLP(3, 2, 4, 2)
	p := NewPolicy(m, 1)
	if err := p.Step([][]float64{{1, 2}}, []int{0, 1}, []float64{1}, 0.1, 0); err == nil {
		t.Error("arity mismatch did not error")
	}
	if err := p.Step([][]float64{{1, 2}}, []int{5}, []float64{1}, 0.1, 0); err == nil {
		t.Error("out-of-range action did not error")
	}
}

// A REINFORCE sanity problem: a 2-armed bandit whose reward depends on the
// state sign. The policy must learn state-dependent actions.
func TestPolicyGradientLearnsContextualBandit(t *testing.T) {
	m, err := NewMLP(3, 1, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPolicy(m, 5)
	rng := rand.New(rand.NewSource(6))
	reward := func(state float64, action int) float64 {
		if (state > 0) == (action == 1) {
			return 1
		}
		return -1
	}
	for epoch := 0; epoch < 300; epoch++ {
		var states [][]float64
		var actions []int
		var advs []float64
		for i := 0; i < 32; i++ {
			s := rng.Float64()*2 - 1
			st := []float64{s}
			a := p.Sample(st)
			states = append(states, st)
			actions = append(actions, a)
			advs = append(advs, reward(s, a))
		}
		if err := p.Step(states, actions, advs, 0.1, 0.002); err != nil {
			t.Fatal(err)
		}
	}
	// Evaluate greedy accuracy.
	ok := 0
	for i := 0; i < 200; i++ {
		s := rng.Float64()*2 - 1
		if reward(s, p.Greedy([]float64{s})) > 0 {
			ok++
		}
	}
	if acc := float64(ok) / 200; acc < 0.9 {
		t.Errorf("contextual bandit accuracy = %v, want >= 0.9", acc)
	}
}

func TestEntropyBonusKeepsStochastic(t *testing.T) {
	// With a large entropy bonus and zero advantage, the policy should
	// drift toward uniform rather than collapse.
	m, _ := NewMLP(11, 1, 8, 3)
	p := NewPolicy(m, 2)
	st := []float64{0.7}
	for i := 0; i < 200; i++ {
		a := p.Sample(st)
		if err := p.Step([][]float64{st}, []int{a}, []float64{0}, 0.05, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	probs := p.probsFor(st)
	for _, v := range probs {
		if v < 0.15 {
			t.Errorf("entropy-regularised policy collapsed: %v", probs)
		}
	}
}
