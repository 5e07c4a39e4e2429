// Package dtree implements a greedy decision tree over categorical
// features (multiway splits, Gini impurity). The paper (§5.3, Fig. 5)
// extracts such a tree from the labeled projects after manual annotation
// to show the patterns are automatically separable up to a few
// misclassifications.
package dtree

import (
	"fmt"
	"sort"
	"strings"
)

// Sample is one training or evaluation instance: a categorical feature
// vector and its class label.
type Sample struct {
	Features []string
	Class    string
}

// Options tunes the induction.
type Options struct {
	// MaxDepth bounds the tree depth; 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum number of samples required to split a node
	// further; nodes smaller than this become leaves. Values below 2 are
	// treated as 2.
	MinLeaf int
}

// Tree is a trained decision tree.
type Tree struct {
	featureNames []string
	root         *node
}

type node struct {
	// leaf nodes carry only class; internal nodes split on feature.
	leaf     bool
	class    string
	feature  int
	children map[string]*node
	// majority is the majority class at this node, used for feature
	// values unseen during training.
	majority string
	// n is the number of training samples that reached this node.
	n int
}

// Train induces a tree from the samples. All samples must have
// len(featureNames) features.
func Train(featureNames []string, samples []Sample, opts Options) (*Tree, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("dtree: no training samples")
	}
	for i, s := range samples {
		if len(s.Features) != len(featureNames) {
			return nil, fmt.Errorf("dtree: sample %d has %d features, want %d",
				i, len(s.Features), len(featureNames))
		}
	}
	if opts.MinLeaf < 2 {
		opts.MinLeaf = 2
	}
	t := &Tree{featureNames: featureNames}
	used := make([]bool, len(featureNames))
	t.root = grow(samples, used, 0, opts)
	return t, nil
}

// gini is the Gini impurity 1 - Σ(c/n)², computed as 1 - Σc²/n² with the
// sum in integers: summing float shares in map order rounded differently
// from run to run, enough to flip a near-tie split.
func gini(samples []Sample) float64 {
	counts := map[string]int{}
	for _, s := range samples {
		counts[s.Class]++
	}
	sumsq, n := 0, len(samples)
	for _, c := range counts {
		sumsq += c * c
	}
	return 1 - float64(sumsq)/float64(n*n)
}

func majorityClass(samples []Sample) string {
	counts := map[string]int{}
	for _, s := range samples {
		counts[s.Class]++
	}
	best, bestN := "", -1
	// Deterministic tie-break by class name.
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return best
}

func pure(samples []Sample) bool {
	for i := 1; i < len(samples); i++ {
		if samples[i].Class != samples[0].Class {
			return false
		}
	}
	return true
}

func grow(samples []Sample, used []bool, depth int, opts Options) *node {
	nd := &node{majority: majorityClass(samples), n: len(samples)}
	if pure(samples) || len(samples) < opts.MinLeaf ||
		(opts.MaxDepth > 0 && depth >= opts.MaxDepth) {
		nd.leaf, nd.class = true, nd.majority
		return nd
	}
	bestFeature, bestGain := -1, 1e-12
	parentGini := gini(samples)
	n := float64(len(samples))
	for f := range used {
		if used[f] {
			continue
		}
		parts := partition(samples, f)
		if len(parts) < 2 {
			continue
		}
		// Sum in sorted key order: float addition is order-sensitive, and
		// map-order iteration could flip a near-tie split between runs.
		values := make([]string, 0, len(parts))
		for v := range parts {
			values = append(values, v)
		}
		sort.Strings(values)
		weighted := 0.0
		for _, v := range values {
			part := parts[v]
			weighted += float64(len(part)) / n * gini(part)
		}
		if gain := parentGini - weighted; gain > bestGain {
			bestFeature, bestGain = f, gain
		}
	}
	if bestFeature < 0 {
		nd.leaf, nd.class = true, nd.majority
		return nd
	}
	nd.feature = bestFeature
	nd.children = map[string]*node{}
	childUsed := append([]bool(nil), used...)
	childUsed[bestFeature] = true
	for value, part := range partition(samples, bestFeature) {
		nd.children[value] = grow(part, childUsed, depth+1, opts)
	}
	return nd
}

func partition(samples []Sample, feature int) map[string][]Sample {
	parts := map[string][]Sample{}
	for _, s := range samples {
		v := s.Features[feature]
		parts[v] = append(parts[v], s)
	}
	return parts
}

// Predict classifies a feature vector; feature values unseen during
// training fall back to the majority class of the deepest node reached.
func (t *Tree) Predict(features []string) string {
	nd := t.root
	for !nd.leaf {
		child, ok := nd.children[features[nd.feature]]
		if !ok {
			return nd.majority
		}
		nd = child
	}
	return nd.class
}

// Misclassified returns the samples the tree labels differently from
// their class — the Fig. 5 headline number when evaluated on the training
// corpus itself.
func (t *Tree) Misclassified(samples []Sample) []Sample {
	var out []Sample
	for _, s := range samples {
		if t.Predict(s.Features) != s.Class {
			out = append(out, s)
		}
	}
	return out
}

// Accuracy returns the fraction of samples classified correctly.
func (t *Tree) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	return 1 - float64(len(t.Misclassified(samples)))/float64(len(samples))
}

// Depth returns the maximum depth of the tree (a single leaf has depth 0).
func (t *Tree) Depth() int { return depthOf(t.root) }

func depthOf(nd *node) int {
	if nd.leaf {
		return 0
	}
	max := 0
	for _, c := range nd.children {
		if d := depthOf(c); d > max {
			max = d
		}
	}
	return max + 1
}

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int { return leavesOf(t.root) }

func leavesOf(nd *node) int {
	if nd.leaf {
		return 1
	}
	n := 0
	for _, c := range nd.children {
		n += leavesOf(c)
	}
	return n
}

// Render prints the tree as indented text, children sorted by feature
// value for stable output.
func (t *Tree) Render() string {
	var sb strings.Builder
	t.render(&sb, t.root, 0)
	return sb.String()
}

func (t *Tree) render(sb *strings.Builder, nd *node, indent int) {
	pad := strings.Repeat("  ", indent)
	if nd.leaf {
		fmt.Fprintf(sb, "%s-> %s (n=%d)\n", pad, nd.class, nd.n)
		return
	}
	values := make([]string, 0, len(nd.children))
	for v := range nd.children {
		values = append(values, v)
	}
	sort.Strings(values)
	for _, v := range values {
		fmt.Fprintf(sb, "%s%s = %s:\n", pad, t.featureNames[nd.feature], v)
		t.render(sb, nd.children[v], indent+1)
	}
}
