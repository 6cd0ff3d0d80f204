// Package dtree implements CART-style decision trees — regression trees,
// classification trees, and gradient-boosted regression ensembles — from
// scratch on the standard library.
//
// The paper uses tree learners in four places, all reproduced on top of this
// package:
//
//   - Decision Tree Regression for the throughput+signal-strength power
//     model (§4.5, Fig. 15);
//   - DTR calibration of the software power monitor (§4.6, Fig. 16);
//   - Gradient Boosted Decision Trees for mmWave throughput prediction in
//     ABR streaming (§5.3, Fig. 18a, after Lumos5G);
//   - interpretable classification trees, read through their splits, for
//     4G/5G interface selection in web browsing (§6.2, Fig. 22, Table 6).
package dtree

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int     // split feature index, -1 for leaf
	threshold float64 // go left if x[feature] < threshold
	left      *node
	right     *node
	value     float64 // regression prediction or encoded class
	samples   int
}

func (n *node) isLeaf() bool { return n.feature < 0 }

// Options controls tree growth.
type Options struct {
	// MaxDepth limits tree depth; 0 means a library default of 12.
	MaxDepth int
	// MinLeaf is the minimum number of samples per leaf; 0 means 1 for
	// classification and 3 for regression.
	MinLeaf int
}

func (o Options) withDefaults(regression bool) Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = 12
	}
	if o.MinLeaf == 0 {
		if regression {
			o.MinLeaf = 3
		} else {
			o.MinLeaf = 1
		}
	}
	return o
}

func validate(X [][]float64, n int) error {
	if len(X) == 0 {
		return errors.New("dtree: empty training set")
	}
	if len(X) != n {
		return fmt.Errorf("dtree: %d feature rows vs %d labels", len(X), n)
	}
	nf := len(X[0])
	if nf == 0 {
		return errors.New("dtree: zero-width feature rows")
	}
	for i, r := range X {
		if len(r) != nf {
			return fmt.Errorf("dtree: row %d has %d features, want %d", i, len(r), nf)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Regression trees

// Regressor is a CART regression tree minimising squared error.
type Regressor struct {
	root *node
}

// TrainRegressor grows a regression tree on (X, y).
func TrainRegressor(X [][]float64, y []float64, opt Options) (*Regressor, error) {
	if err := validate(X, len(y)); err != nil {
		return nil, err
	}
	g := &regGrower{X: X, y: y, opt: opt.withDefaults(true),
		scratch: make([]int32, 0, len(X))}
	return &Regressor{root: g.grow(featureOrders(X), 0)}, nil
}

func meanAndSSE(y []float64, idx []int32) (mean, sse float64) {
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	for _, i := range idx {
		d := y[i] - mean
		sse += d * d
	}
	return mean, sse
}

// featureOrders returns, per feature, the sample indices sorted by that
// feature's value (ties broken by index, so growth is deterministic). The
// orders are computed once per training set and carved by stable partition
// at every node, replacing the per-node per-feature sort that dominated
// GBDT training time.
func featureOrders(X [][]float64) [][]int32 {
	nf := len(X[0])
	orders := make([][]int32, nf)
	for f := 0; f < nf; f++ {
		o := make([]int32, len(X))
		for i := range o {
			o[i] = int32(i)
		}
		sort.Slice(o, func(a, b int) bool {
			xa, xb := X[o[a]][f], X[o[b]][f]
			if xa != xb {
				return xa < xb
			}
			return o[a] < o[b]
		})
		orders[f] = o
	}
	return orders
}

// regGrower grows one regression tree over presorted per-feature orders.
// The orders passed to grow are consumed (partitioned in place).
type regGrower struct {
	X       [][]float64
	y       []float64
	opt     Options
	scratch []int32 // right-half buffer for the stable partition
}

func (g *regGrower) grow(orders [][]int32, depth int) *node {
	idx := orders[0]
	mean, sse := meanAndSSE(g.y, idx)
	n := &node{feature: -1, value: mean, samples: len(idx)}
	if depth >= g.opt.MaxDepth || len(idx) < 2*g.opt.MinLeaf || sse <= 1e-12 {
		return n
	}
	feat, thr, gain := g.bestSplit(orders, sse)
	if feat < 0 || gain <= 0 { // a split must reduce impurity
		return n
	}
	// Stable partition of every feature's order around the chosen split:
	// left and right halves stay sorted, so child nodes never re-sort.
	left := make([][]int32, len(orders))
	right := make([][]int32, len(orders))
	for f := range orders {
		o := orders[f]
		k := 0
		r := g.scratch[:0]
		for _, i := range o {
			if g.X[i][feat] < thr {
				o[k] = i
				k++
			} else {
				r = append(r, i)
			}
		}
		copy(o[k:], r)
		left[f], right[f] = o[:k:k], o[k:]
	}
	if len(left[0]) < g.opt.MinLeaf || len(right[0]) < g.opt.MinLeaf {
		return n
	}
	n.feature = feat
	n.threshold = thr
	n.left = g.grow(left, depth+1)
	n.right = g.grow(right, depth+1)
	return n
}

// bestSplit scans every feature for the threshold maximising SSE reduction,
// using the running-sums trick over the node's presorted orders. total is
// the node's SSE.
func (g *regGrower) bestSplit(orders [][]int32, total float64) (feat int, thr, gain float64) {
	feat = -1
	n := len(orders[0])
	minLeaf := g.opt.MinLeaf
	y := g.y
	for f := range orders {
		order := orders[f]
		var sumL, sqL float64
		sumT, sqT := 0.0, 0.0
		for _, i := range order {
			sumT += y[i]
			sqT += y[i] * y[i]
		}
		for k := 0; k < n-1; k++ {
			yi := y[order[k]]
			sumL += yi
			sqL += yi * yi
			if k+1 < minLeaf || n-(k+1) < minLeaf {
				continue
			}
			a, b := g.X[order[k]][f], g.X[order[k+1]][f]
			if a == b {
				continue
			}
			nl := float64(k + 1)
			nr := float64(n - k - 1)
			sseL := sqL - sumL*sumL/nl
			sumR := sumT - sumL
			sseR := (sqT - sqL) - sumR*sumR/nr
			if dec := total - sseL - sseR; dec > gain {
				gain = dec
				feat = f
				thr = (a + b) / 2
			}
		}
	}
	return feat, thr, gain
}

// Predict evaluates the tree at feature vector x.
func (r *Regressor) Predict(x []float64) float64 {
	n := r.root
	for !n.isLeaf() {
		if x[n.feature] < n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Depth returns the maximum depth of the tree (a stump has depth 0).
func (r *Regressor) Depth() int { return depth(r.root) }

// Leaves returns the number of leaf nodes.
func (r *Regressor) Leaves() int { return leaves(r.root) }

func depth(n *node) int {
	if n == nil || n.isLeaf() {
		return 0
	}
	l, rr := depth(n.left), depth(n.right)
	if l > rr {
		return l + 1
	}
	return rr + 1
}

func leaves(n *node) int {
	if n == nil {
		return 0
	}
	if n.isLeaf() {
		return 1
	}
	return leaves(n.left) + leaves(n.right)
}

// ---------------------------------------------------------------------------
// Classification trees

// Classifier is a CART classification tree minimising Gini impurity.
type Classifier struct {
	root *node
	// FeatureNames, if set, is used by Describe to render splits.
	FeatureNames []string
}

// TrainClassifier grows a classification tree on (X, y) with labels in
// [0, nClasses).
func TrainClassifier(X [][]float64, y []int, nClasses int, opt Options) (*Classifier, error) {
	if err := validate(X, len(y)); err != nil {
		return nil, err
	}
	if nClasses < 2 {
		return nil, fmt.Errorf("dtree: need >= 2 classes, got %d", nClasses)
	}
	for i, label := range y {
		if label < 0 || label >= nClasses {
			return nil, fmt.Errorf("dtree: label %d at row %d out of range [0,%d)", label, i, nClasses)
		}
	}
	opt = opt.withDefaults(false)
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	return &Classifier{root: growCls(X, y, idx, nClasses, opt, 0)}, nil
}

func classCounts(y []int, idx []int, k int) []int {
	c := make([]int, k)
	for _, i := range idx {
		c[y[i]]++
	}
	return c
}

func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}

func argmax(counts []int) int {
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return best
}

func growCls(X [][]float64, y []int, idx []int, k int, opt Options, d int) *node {
	counts := classCounts(y, idx, k)
	g := gini(counts, len(idx))
	n := &node{feature: -1, value: float64(argmax(counts)), samples: len(idx)}
	if d >= opt.MaxDepth || len(idx) < 2*opt.MinLeaf || g == 0 {
		return n
	}
	feat, thr, gain := bestClsSplit(X, y, idx, k, opt.MinLeaf)
	if feat < 0 || gain <= 0 { // a split must reduce impurity
		return n
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][feat] < thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) < opt.MinLeaf || len(ri) < opt.MinLeaf {
		return n
	}
	n.feature = feat
	n.threshold = thr
	n.left = growCls(X, y, li, k, opt, d+1)
	n.right = growCls(X, y, ri, k, opt, d+1)
	return n
}

func bestClsSplit(X [][]float64, y []int, idx []int, k, minLeaf int) (feat int, thr, gain float64) {
	feat = -1
	n := len(idx)
	total := gini(classCounts(y, idx, k), n)
	order := make([]int, n)
	countsL := make([]int, k)
	countsR := make([]int, k)
	for f := 0; f < len(X[idx[0]]); f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		for i := range countsL {
			countsL[i] = 0
		}
		copy(countsR, classCounts(y, idx, k))
		for p := 0; p < n-1; p++ {
			c := y[order[p]]
			countsL[c]++
			countsR[c]--
			if p+1 < minLeaf || n-(p+1) < minLeaf {
				continue
			}
			a, b := X[order[p]][f], X[order[p+1]][f]
			if a == b {
				continue
			}
			nl, nr := p+1, n-p-1
			g := total -
				float64(nl)/float64(n)*gini(countsL, nl) -
				float64(nr)/float64(n)*gini(countsR, nr)
			if g > gain {
				gain = g
				feat = f
				thr = (a + b) / 2
			}
		}
	}
	return feat, thr, gain
}

// Predict returns the class label for feature vector x.
func (c *Classifier) Predict(x []float64) int {
	n := c.root
	for !n.isLeaf() {
		if x[n.feature] < n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return int(n.value)
}

// Accuracy returns the fraction of rows classified correctly.
func (c *Classifier) Accuracy(X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	ok := 0
	for i, x := range X {
		if c.Predict(x) == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(X))
}

// Depth returns the tree depth.
func (c *Classifier) Depth() int { return depth(c.root) }

// Leaves returns the number of leaves.
func (c *Classifier) Leaves() int { return leaves(c.root) }

// Prune performs bottom-up reduced-error pruning against a validation set:
// any internal node whose collapse does not reduce validation accuracy
// becomes a leaf. This mirrors the "bottom-up post-pruned DT" of Fig. 22.
func (c *Classifier) Prune(Xval [][]float64, yval []int) {
	if len(Xval) == 0 {
		return
	}
	var pruneNode func(n *node)
	pruneNode = func(n *node) {
		if n == nil || n.isLeaf() {
			return
		}
		pruneNode(n.left)
		pruneNode(n.right)
		before := c.Accuracy(Xval, yval)
		// Tentatively collapse.
		f, l, r := n.feature, n.left, n.right
		n.feature = -1
		after := c.Accuracy(Xval, yval)
		if after < before {
			n.feature, n.left, n.right = f, l, r // restore
		} else {
			n.left, n.right = nil, nil
		}
	}
	pruneNode(c.root)
}

// SplitInfo describes one internal node for rendering.
type SplitInfo struct {
	Feature   int
	Name      string
	Threshold float64
	Depth     int
	Samples   int
}

// Splits returns the internal nodes in pre-order, shallowest first — the
// interpretable structure shown in Fig. 22.
func (c *Classifier) Splits() []SplitInfo {
	var out []SplitInfo
	var walk func(n *node, d int)
	walk = func(n *node, d int) {
		if n == nil || n.isLeaf() {
			return
		}
		name := fmt.Sprintf("x%d", n.feature)
		if n.feature < len(c.FeatureNames) {
			name = c.FeatureNames[n.feature]
		}
		out = append(out, SplitInfo{Feature: n.feature, Name: name,
			Threshold: n.threshold, Depth: d, Samples: n.samples})
		walk(n.left, d+1)
		walk(n.right, d+1)
	}
	walk(c.root, 0)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Depth < out[j].Depth })
	return out
}

// Describe renders the top levels of the tree as indented text.
func (c *Classifier) Describe(maxDepth int) string {
	var b strings.Builder
	var walk func(n *node, d int)
	walk = func(n *node, d int) {
		if n == nil || d > maxDepth {
			return
		}
		indent := strings.Repeat("  ", d)
		if n.isLeaf() {
			fmt.Fprintf(&b, "%sleaf: class %d (n=%d)\n", indent, int(n.value), n.samples)
			return
		}
		name := fmt.Sprintf("x%d", n.feature)
		if n.feature < len(c.FeatureNames) {
			name = c.FeatureNames[n.feature]
		}
		fmt.Fprintf(&b, "%s%s < %.4g? (n=%d)\n", indent, name, n.threshold, n.samples)
		walk(n.left, d+1)
		walk(n.right, d+1)
	}
	walk(c.root, 0)
	return b.String()
}

// ---------------------------------------------------------------------------
// Gradient-boosted regression trees

// GBDTOptions configures gradient boosting.
type GBDTOptions struct {
	// Trees is the number of boosting rounds; 0 means 100.
	Trees int
	// LearningRate shrinks each tree's contribution; 0 means 0.1.
	LearningRate float64
	// Tree controls each weak learner; a zero value yields shallow
	// depth-3 trees.
	Tree Options
}

func (o GBDTOptions) withDefaults() GBDTOptions {
	if o.Trees == 0 {
		o.Trees = 100
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.1
	}
	if o.Tree.MaxDepth == 0 {
		o.Tree.MaxDepth = 3
	}
	return o
}

// GBDT is a gradient-boosted ensemble of regression trees under squared
// loss (each round fits the residuals of the current ensemble).
type GBDT struct {
	base  float64
	lr    float64
	trees []*Regressor
}

// TrainGBDT fits a boosted ensemble on (X, y). The per-feature sample
// orders are sorted once for the whole ensemble and copied into a reusable
// work buffer each round: only the residuals change between rounds, never
// the feature values the orders depend on.
func TrainGBDT(X [][]float64, y []float64, opt GBDTOptions) (*GBDT, error) {
	if err := validate(X, len(y)); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	g := &GBDT{lr: opt.LearningRate}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	g.base = mean
	resid := make([]float64, len(y))
	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = mean
	}
	master := featureOrders(X)
	work := make([][]int32, len(master))
	for f := range work {
		work[f] = make([]int32, len(X))
	}
	grower := &regGrower{X: X, y: resid, opt: opt.Tree.withDefaults(true),
		scratch: make([]int32, 0, len(X))}
	for round := 0; round < opt.Trees; round++ {
		var maxAbs float64
		for i := range y {
			resid[i] = y[i] - pred[i]
			if a := math.Abs(resid[i]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs < 1e-9 {
			break // perfectly fit
		}
		for f := range master {
			copy(work[f], master[f])
		}
		tr := &Regressor{root: grower.grow(work, 0)}
		g.trees = append(g.trees, tr)
		for i := range pred {
			pred[i] += g.lr * tr.Predict(X[i])
		}
	}
	return g, nil
}

// Predict evaluates the ensemble at x.
func (g *GBDT) Predict(x []float64) float64 {
	out := g.base
	for _, t := range g.trees {
		out += g.lr * t.Predict(x)
	}
	return out
}
