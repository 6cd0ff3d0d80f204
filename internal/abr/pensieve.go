package abr

import (
	"fmt"
	"math"
	"math/rand"

	"fivegsim/internal/nn"
)

// Pensieve state features: last quality (normalised), buffer level, the
// last thrptLags chunk throughputs (normalised by the top bitrate), the
// last download time, and the fraction of chunks remaining.
const thrptLags = 8

// stateDim is the policy input width.
const stateDim = 3 + thrptLags

// Pensieve is the learning-based ABR of Mao et al. (SIGCOMM'17): a neural
// policy trained with policy gradients to maximise the linear QoE reward.
// The paper evaluates a model trained on (mostly 4G-era) traces and finds
// it wins on 4G but suffers the worst stalls on mmWave 5G (§5.2).
type Pensieve struct {
	policy *nn.Policy
	// Stochastic switches between greedy (evaluation) and sampled
	// (training) action selection.
	Stochastic bool

	state []float64 // reusable feature buffer
}

// Name implements Algorithm.
func (p *Pensieve) Name() string { return "Pensieve" }

// Reset implements Algorithm.
func (p *Pensieve) Reset() {}

// state assembles the normalised feature vector.
func pensieveState(ctx *Context) []float64 {
	return pensieveStateInto(nil, ctx)
}

// pensieveStateInto assembles the feature vector into x, growing it only if
// the capacity is short.
func pensieveStateInto(x []float64, ctx *Context) []float64 {
	v := ctx.Video
	top := v.Top()
	if cap(x) < stateDim {
		x = make([]float64, stateDim)
	}
	x = x[:stateDim]
	for i := range x {
		x[i] = 0
	}
	x[0] = v.BitratesMbps[ctx.LastQuality] / top
	x[1] = ctx.BufferS / 10.0
	for i := 0; i < thrptLags; i++ {
		idx := len(ctx.PastChunkMbps) - thrptLags + i
		if idx >= 0 {
			x[2+i] = ctx.PastChunkMbps[idx] / top
		}
	}
	if n := len(ctx.PastChunkTimeS); n > 0 {
		x[2+thrptLags] = ctx.PastChunkTimeS[n-1] / 10.0
	}
	return x
}

// Select implements Algorithm.
func (p *Pensieve) Select(ctx *Context) int {
	p.state = pensieveStateInto(p.state, ctx)
	if p.Stochastic {
		return p.policy.Sample(p.state)
	}
	return p.policy.Greedy(p.state)
}

// Pensieve's training: supervised epochs over the oracle-teacher dataset,
// then REINFORCE fine-tuning episodes, for a policy with one hidden layer,
// at a fixed policy-gradient learning rate and exploration (entropy) bonus.
const (
	pensieveImitationPasses = 30
	pensieveEpisodes        = 30
	pensieveHidden          = 48
	pensieveLR              = 0.05
	pensieveEntropy         = 0.03
)

// TrainPensieve trains a policy on the given video and throughput traces:
// first supervised imitation of an oracle-informed MPC teacher (standing in
// for the converged phase of Pensieve's A3C training, which bootstraps much
// faster), then REINFORCE fine-tuning on the linear-QoE reward. Rewards are
// normalised by the top bitrate so the same hyperparameters work for the
// 20 Mbps 4G ladder and the 160 Mbps 5G ladder.
func TrainPensieve(v Video, traces [][]float64, seed int64) (*Pensieve, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("abr: no training traces")
	}
	net, err := nn.NewMLP(seed, stateDim, pensieveHidden, v.Tracks())
	if err != nil {
		return nil, err
	}
	agent := &Pensieve{policy: nn.NewPolicy(net, seed+1), Stochastic: true}

	// Phase 1: imitation of an oracle-informed MPC teacher by minibatch
	// SGD. A constant advantage of w turns the policy gradient into
	// weighted cross-entropy; classes are reweighted (inverse-frequency,
	// square-rooted) because the teacher picks the top track most of the
	// time and the rare back-off decisions carry all the signal.
	teacher := &MPC{Label: "teacher", Pred: &OraclePredictor{}}
	var imStates [][]float64
	var imActions []int
	for _, tr := range traces {
		cap := &captureAlgo{inner: teacher}
		Simulate(v, cap, tr, Options{})
		imStates = append(imStates, cap.states...)
		imActions = append(imActions, cap.actions...)
	}
	counts := make([]float64, v.Tracks())
	for _, a := range imActions {
		counts[a]++
	}
	weight := func(a int) float64 {
		if counts[a] == 0 {
			return 0
		}
		return math.Sqrt(float64(len(imActions)) / (counts[a] * float64(v.Tracks())))
	}
	rng := rand.New(rand.NewSource(seed + 2))
	idx := rng.Perm(len(imStates))
	const batch = 64
	for pass := 0; pass < pensieveImitationPasses; pass++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for off := 0; off+batch <= len(idx); off += batch {
			bS := make([][]float64, 0, batch)
			bA := make([]int, 0, batch)
			bW := make([]float64, 0, batch)
			for _, k := range idx[off : off+batch] {
				bS = append(bS, imStates[k])
				bA = append(bA, imActions[k])
				bW = append(bW, weight(imActions[k]))
			}
			if err := agent.policy.Step(bS, bA, bW, pensieveLR, 0); err != nil {
				return nil, err
			}
		}
	}
	// Per-timestep running baseline: returns-to-go shrink toward the end of
	// an episode by construction, so a scalar baseline would encode the
	// chunk index rather than action quality.
	var baseline []float64
	for ep := 0; ep < pensieveEpisodes; ep++ {
		tr := traces[ep%len(traces)]
		states, actions, rewards := rollout(v, agent, tr)
		if len(states) == 0 {
			continue
		}
		const gamma = 0.9
		returns := make([]float64, len(rewards))
		acc := 0.0
		for i := len(rewards) - 1; i >= 0; i-- {
			acc = rewards[i] + gamma*acc
			returns[i] = acc
		}
		for len(baseline) < len(returns) {
			baseline = append(baseline, returns[len(baseline)])
		}
		adv := make([]float64, len(returns))
		var sq float64
		for i, r := range returns {
			adv[i] = r - baseline[i]
			sq += adv[i] * adv[i]
			baseline[i] = 0.95*baseline[i] + 0.05*r
		}
		// Normalise advantages: keeps the gradient scale stable across the
		// very different reward magnitudes of calm and stall-heavy traces.
		if sd := math.Sqrt(sq / float64(len(adv))); sd > 1e-6 {
			for i := range adv {
				adv[i] /= sd
			}
		}
		if err := agent.policy.Step(states, actions, adv, pensieveLR, pensieveEntropy); err != nil {
			return nil, err
		}
	}
	agent.Stochastic = false
	return agent, nil
}

// rollout plays one episode with the (stochastic) policy, returning the
// visited states, chosen actions, and per-chunk normalised QoE rewards: the
// linear QoE decomposed chunk by chunk (bitrate term minus smoothness
// minus the exact stall this chunk's download caused).
func rollout(v Video, agent *Pensieve, tr []float64) (states [][]float64, actions []int, rewards []float64) {
	rec := &captureAlgo{inner: agent} // agent.Stochastic: each Select samples
	r := Simulate(v, rec, tr, Options{})
	states, actions = rec.states, rec.actions
	top := v.Top()
	prevQ := 0
	for i, q := range r.Qualities {
		rw := v.BitratesMbps[q] / top
		if i > 0 {
			rw -= math.Abs(v.BitratesMbps[q]-v.BitratesMbps[prevQ]) / top
			// Exact stall caused by this chunk's download (the first
			// chunk's download is startup, not a stall).
			if stall := r.DownloadS[i] - r.BufferAtSelectS[i]; stall > 0 {
				rw -= stall
			}
		}
		prevQ = q
		rewards = append(rewards, rw)
	}
	return states, actions, rewards
}

// captureAlgo records the states seen and actions chosen by an algorithm:
// the oracle-informed teacher (for imitation) or the stochastic policy
// itself (for REINFORCE rollouts).
type captureAlgo struct {
	inner   Algorithm
	states  [][]float64
	actions []int
}

func (c *captureAlgo) Name() string { return c.inner.Name() }
func (c *captureAlgo) Reset()       { c.inner.Reset() }
func (c *captureAlgo) Select(ctx *Context) int {
	a := c.inner.Select(ctx)
	c.states = append(c.states, pensieveState(ctx))
	c.actions = append(c.actions, a)
	return a
}
