// Package nn is a minimal neural-network library: fully-connected networks
// with tanh hidden layers, a softmax policy head, and REINFORCE-style policy
// gradients. It exists to reproduce Pensieve (§5.1), the learning-based ABR
// algorithm the paper evaluates, without any dependency beyond the standard
// library.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// MLP is a fully-connected network with tanh activations on hidden layers
// and a linear output layer.
type MLP struct {
	sizes [][2]int    // per layer: (in, out)
	w     [][]float64 // per layer: out*in weights, row-major
	b     [][]float64 // per layer: out biases
}

// NewMLP builds a network with the given layer widths, e.g. NewMLP(seed,
// 12, 32, 6) for 12 inputs, one 32-unit hidden layer, and 6 outputs.
// Weights are Xavier-initialised from the seed.
func NewMLP(seed int64, widths ...int) (*MLP, error) {
	if len(widths) < 2 {
		return nil, errors.New("nn: need at least input and output widths")
	}
	for _, w := range widths {
		if w <= 0 {
			return nil, fmt.Errorf("nn: non-positive layer width %d", w)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{}
	for l := 0; l+1 < len(widths); l++ {
		in, out := widths[l], widths[l+1]
		m.sizes = append(m.sizes, [2]int{in, out})
		scale := math.Sqrt(2.0 / float64(in+out))
		w := make([]float64, in*out)
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		m.w = append(m.w, w)
		m.b = append(m.b, make([]float64, out))
	}
	return m, nil
}

// NumInputs returns the input width.
func (m *MLP) NumInputs() int { return m.sizes[0][0] }

// checkInput reports an input whose width is not NumInputs.
func (m *MLP) checkInput(x []float64) error {
	if len(x) != m.NumInputs() {
		return fmt.Errorf("nn: input width %d, want %d", len(x), m.NumInputs())
	}
	return nil
}

// forwardInto runs the network on x, writing the activations of every
// layer into acts (acts[0] is the input, acts[last] the linear output);
// acts must have length len(m.sizes)+1. acts[0] is set to alias x; the
// per-layer buffers are reused across calls and only (re)allocated when a
// layer's width changes, which makes repeated inference allocation-free.
func (m *MLP) forwardInto(acts [][]float64, x []float64) {
	acts[0] = x
	cur := x
	for l, sz := range m.sizes {
		in, out := sz[0], sz[1]
		next := acts[l+1]
		if len(next) != out {
			next = make([]float64, out)
			acts[l+1] = next
		}
		// Four rows per pass share each load of cur and keep four
		// independent add chains in flight; every row still sums its
		// inputs in order from its bias, so each output keeps its bits.
		w, b := m.w[l], m.b[l]
		o := 0
		for ; o+4 <= out; o += 4 {
			s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
			r0 := w[o*in : (o+1)*in]
			r1 := w[(o+1)*in : (o+2)*in]
			r2 := w[(o+2)*in : (o+3)*in]
			r3 := w[(o+3)*in : (o+4)*in]
			for i, v := range cur {
				s0 += r0[i] * v
				s1 += r1[i] * v
				s2 += r2[i] * v
				s3 += r3[i] * v
			}
			next[o], next[o+1], next[o+2], next[o+3] = s0, s1, s2, s3
		}
		for ; o < out; o++ {
			s := b[o]
			row := w[o*in : (o+1)*in]
			for i, v := range cur {
				s += row[i] * v
			}
			next[o] = s
		}
		if l+1 < len(m.sizes) { // hidden layer: tanh
			for o := range next {
				next[o] = math.Tanh(next[o])
			}
		}
		cur = next
	}
}

// softmaxInto converts logits into a probability distribution, written
// into dst, which grows only when its capacity is short. It is numerically
// stable under large logits.
func softmaxInto(dst, logits []float64) []float64 {
	if cap(dst) < len(logits) {
		dst = make([]float64, len(logits))
	}
	out := dst[:len(logits)]
	maxV := logits[0]
	for _, v := range logits[1:] {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		out[i] = math.Exp(v - maxV)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Policy wraps an MLP as a stochastic softmax policy over discrete actions.
type Policy struct {
	Net *MLP
	rng *rand.Rand

	// Inference and gradient scratch, lazily sized and reused across calls
	// (so a Policy is not safe for concurrent use).
	acts   [][]float64
	probs  []float64
	gw, gb [][]float64
	delta  []float64
	back   [][]float64
}

// NewPolicy creates a policy with its own action-sampling random source.
func NewPolicy(net *MLP, seed int64) *Policy {
	return &Policy{Net: net, rng: rand.New(rand.NewSource(seed))}
}

// probsFor computes the action distribution into the policy's scratch; the
// returned slice is valid until the next call.
func (p *Policy) probsFor(state []float64) []float64 {
	if err := p.Net.checkInput(state); err != nil {
		panic(err.Error())
	}
	if len(p.acts) != len(p.Net.sizes)+1 {
		p.acts = make([][]float64, len(p.Net.sizes)+1)
	}
	p.Net.forwardInto(p.acts, state)
	p.probs = softmaxInto(p.probs, p.acts[len(p.acts)-1])
	return p.probs
}

// Sample draws an action from the policy.
func (p *Policy) Sample(state []float64) int {
	probs := p.probsFor(state)
	u := p.rng.Float64()
	acc := 0.0
	for a, pr := range probs {
		acc += pr
		if u < acc {
			return a
		}
	}
	return len(probs) - 1
}

// Greedy returns the highest-probability action.
func (p *Policy) Greedy(state []float64) int {
	probs := p.probsFor(state)
	best := 0
	for a, pr := range probs {
		if pr > probs[best] {
			best = a
		}
	}
	return best
}

// Step applies one REINFORCE gradient step: for each (state, action,
// advantage) triple it ascends advantage * grad log pi(action|state), plus
// an entropy bonus that keeps the policy exploratory. It returns an error,
// and leaves the weights as they were, on length mismatches, an empty
// batch, a state whose width is not NumInputs and an action out of range.
func (p *Policy) Step(states [][]float64, actions []int, advantages []float64, lr, entropy float64) error {
	if len(states) != len(actions) || len(states) != len(advantages) {
		return fmt.Errorf("nn: step arity mismatch %d/%d/%d",
			len(states), len(actions), len(advantages))
	}
	if len(states) == 0 {
		return fmt.Errorf("nn: step on an empty batch")
	}
	m := p.Net
	for _, st := range states {
		if err := m.checkInput(st); err != nil {
			return err
		}
	}
	// Accumulate gradients over the batch, into buffers reused across
	// steps (zeroed here): minibatch training makes tens of thousands of
	// Step calls and the per-call gradient/activation allocations dominated
	// the training profile.
	if len(p.gw) != len(m.w) {
		p.gw = make([][]float64, len(m.w))
		p.gb = make([][]float64, len(m.b))
		for l := range m.w {
			p.gw[l] = make([]float64, len(m.w[l]))
			p.gb[l] = make([]float64, len(m.b[l]))
		}
		p.back = make([][]float64, len(m.sizes))
		for l := range m.sizes {
			p.back[l] = make([]float64, m.sizes[l][0])
		}
	}
	gw, gb := p.gw, p.gb
	for l := range gw {
		for i := range gw[l] {
			gw[l][i] = 0
		}
		for i := range gb[l] {
			gb[l][i] = 0
		}
	}
	if len(p.acts) != len(m.sizes)+1 {
		p.acts = make([][]float64, len(m.sizes)+1)
	}
	for k, st := range states {
		m.forwardInto(p.acts, st)
		acts := p.acts
		logits := acts[len(acts)-1]
		p.probs = softmaxInto(p.probs, logits)
		probs := p.probs
		a := actions[k]
		if a < 0 || a >= len(probs) {
			return fmt.Errorf("nn: action %d out of range", a)
		}
		// dL/dlogit for REINFORCE with entropy regularisation:
		// advantage * (onehot - probs) + entropy * d(entropy)/dlogit.
		if cap(p.delta) < len(logits) {
			p.delta = make([]float64, len(logits))
		}
		delta := p.delta[:len(logits)]
		// The sample's entropy H, summed once: dH/dlogit_i needs it for
		// every i.
		h := 0.0
		if entropy > 0 {
			for _, pj := range probs {
				if pj > 0 {
					h -= pj * math.Log(pj)
				}
			}
		}
		for i := range logits {
			ind := 0.0
			if i == a {
				ind = 1
			}
			delta[i] = advantages[k] * (ind - probs[i])
			if entropy > 0 && probs[i] > 0 {
				// dH/dlogit_i = -p_i * (log p_i + H)
				delta[i] += entropy * (-probs[i] * (math.Log(probs[i]) + h))
			}
		}
		// Backpropagate delta through the layers.
		grad := delta
		for l := len(m.sizes) - 1; l >= 0; l-- {
			in := m.sizes[l][0]
			prev := acts[l]
			for o := range grad {
				gb[l][o] += grad[o]
				row := gw[l][o*in : (o+1)*in]
				for i := range prev {
					row[i] += grad[o] * prev[i]
				}
			}
			if l == 0 {
				break
			}
			// Gradient w.r.t. previous activation, through tanh. Four
			// columns per pass walk each weight row in order instead of
			// striding down a column; each column still sums over the
			// outputs in order.
			next := p.back[l]
			w := m.w[l]
			i := 0
			for ; i+4 <= in; i += 4 {
				s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
				for o, g := range grad {
					r := w[o*in+i : o*in+i+4]
					s0 += g * r[0]
					s1 += g * r[1]
					s2 += g * r[2]
					s3 += g * r[3]
				}
				next[i] = s0 * (1 - prev[i]*prev[i]) // tanh'
				next[i+1] = s1 * (1 - prev[i+1]*prev[i+1])
				next[i+2] = s2 * (1 - prev[i+2]*prev[i+2])
				next[i+3] = s3 * (1 - prev[i+3]*prev[i+3])
			}
			for ; i < in; i++ {
				s := 0.0
				for o, g := range grad {
					s += g * w[o*in+i]
				}
				next[i] = s * (1 - prev[i]*prev[i])
			}
			grad = next
		}
	}
	// Ascend.
	n := float64(len(states))
	for l := range m.w {
		for i := range m.w[l] {
			m.w[l][i] += lr * gw[l][i] / n
		}
		for i := range m.b[l] {
			m.b[l][i] += lr * gb[l][i] / n
		}
	}
	return nil
}
