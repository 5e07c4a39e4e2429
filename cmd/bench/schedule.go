package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"time"

	"schemaevo/internal/corpus"
	"schemaevo/internal/synth"
	"schemaevo/internal/vcs"
)

// serveSpec defines one serving workload: the stored set, the traffic mix
// and the nominal open-loop rate.
//
// The mixes and the popularity skew are assumptions, not measured or cited
// traffic: nothing in the repository or the paper describes how a
// schemaevod deployment is used. They are chosen so that each workload
// puts its work on the layers its README row names (serve-ingest: full and
// incremental analysis and store appends; serve-read: the render cache and
// the store's read tiers), and a change should not be tuned to them as if
// they were users' traffic. The daemon runs with its default cache sizes.
type serveSpec struct {
	preload int // stored histories at the start
	pool    int // distinct new histories, cycled under fresh names
	mix     [numOpKinds]float64
	rate    float64 // the nominal rate, req/s
	reads   bool    // primary requests are reads (else submissions)
}

// The nominal rate is about a sixth of the saturation throughput measured
// on a 2-vCPU box, where the generator and the daemon share the cores, so
// its latencies are service times rather than queueing: at twice that load
// a slower spell of the machine doubled the write p99 (README.md).
func specFor(name string, smoke bool) serveSpec {
	var s serveSpec
	switch name {
	case "serve-ingest":
		s = serveSpec{preload: 1024, pool: 1024, rate: 200}
		s.mix[opNew], s.mix[opExtend], s.mix[opResubmit] = 0.60, 0.25, 0.15
		if smoke {
			s.preload, s.pool, s.rate = 48, 32, 10
		}
	case "serve-read":
		s = serveSpec{preload: 4096, pool: 16, rate: 1000, reads: true}
		s.mix[opGet], s.mix[opCond], s.mix[opStats], s.mix[opPatterns], s.mix[opExtend] = 0.80, 0.12, 0.02, 0.02, 0.04
		if smoke {
			s.preload, s.rate = 64, 50
		}
	}
	return s
}

// daemonArgs are the daemon flags beyond its address and store directory.
// A 5-s scrub interval, against the default 30 s, puts scrub passes inside
// every measured run.
var daemonArgs = []string{"-scrub-interval", "5s"}

// primary reports whether the latency metrics cover requests of kind k:
// every submission on serve-ingest, the project GETs (plain and
// conditional) on serve-read. The aggregate GETs stay out: patterns, at 2%
// of the traffic and some fifteen times a project GET's median, put the
// read p99 on the border between two request classes, where it moved
// between 3.4 and 7.5 ms from run to run.
func (s serveSpec) primary(k opKind) bool {
	if s.reads {
		return k == opGet || k == opCond
	}
	return k.write()
}

const (
	zipfS      = 1.1 // skew of the read workload's project popularity (an assumption, see serveSpec)
	recentRing = 64  // resubmits repeat one of the last this-many submissions
)

// timing is how a serve run divides its measured seconds: a discarded
// warm-up at the nominal rate, the open-loop nominal step, then the
// closed-loop saturation step. At the default 26 s the nominal step sees
// over 10 000 project GETs on serve-read and over 2500 submissions on
// serve-ingest.
type timing struct {
	warm, nominal, saturate time.Duration
}

func serveTiming(cfg *config) timing {
	warm := 2.0
	if cfg.smoke {
		warm = 0.3
	}
	rest := math.Max(1, cfg.seconds-warm)
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return timing{warm: sec(warm), nominal: sec(0.6 * rest), saturate: sec(0.4 * rest)}
}

// saturationHeadroom is how many times the nominal rate the saturation
// step may reach before it runs out of generated ops and ends early; it
// measured about six times on a 2-vCPU box.
const saturationHeadroom = 10

// opsNeeded bounds the ops a run can consume, with room for Poisson
// excess.
func opsNeeded(spec serveSpec, t timing) int {
	n := spec.rate * (t.warm.Seconds() + t.nominal.Seconds() + saturationHeadroom*t.saturate.Seconds())
	return int(1.2*n) + 512
}

// histDoc is one generated project history held as per-commit JSON, so
// the submission body of any prefix under any name is a concatenation.
type histDoc struct {
	commits []json.RawMessage
}

func newHistDoc(r *vcs.Repo) (*histDoc, error) {
	h := &histDoc{commits: make([]json.RawMessage, len(r.Commits))}
	for i := range r.Commits {
		data, err := json.Marshal(&r.Commits[i])
		if err != nil {
			return nil, err
		}
		h.commits[i] = data
	}
	return h, nil
}

// body is the vcs.Repo JSON of the first k commits under name.
func (h *histDoc) body(name string, k int) []byte {
	n := len(name) + 32
	for _, c := range h.commits[:k] {
		n += len(c) + 1
	}
	b := make([]byte, 0, n)
	b = append(b, `{"name":"`...)
	b = append(b, name...)
	b = append(b, `","commits":[`...)
	for i, c := range h.commits[:k] {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, c...)
	}
	return append(b, "]}"...)
}

// plainName matches names that need no JSON escaping.
var plainName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// schedule is a serving workload's whole seeded input: the stored
// prefixes and a stream of ops with unit-rate arrival gaps, which each
// step scales to its rate.
type schedule struct {
	preload [][]byte // NDJSON batch documents, one per slot
	ops     []op
}

// buildSchedule generates n ops from seed. Kinds are drawn from the mix.
// Extends lengthen a stored prefix; new histories cycle through a pool of
// RandomCorpus draws under fresh names (the fingerprint covers the name,
// so each is a full analysis); resubmits repeat a recent
// submission that is still its project's live version; reads pick a
// preloaded slot by Zipf popularity.
func buildSchedule(spec serveSpec, seed int64, n int) (*schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	stored, err := synth.RandomCorpus(spec.preload, seed)
	if err != nil {
		return nil, err
	}
	pool, err := synth.RandomCorpus(spec.pool, seed*7919+1)
	if err != nil {
		return nil, err
	}
	toHistories := func(c *corpus.Corpus) ([]*histDoc, []*vcs.Repo, error) {
		hs := make([]*histDoc, c.Len())
		repos := make([]*vcs.Repo, c.Len())
		for i, p := range c.Projects {
			if !plainName.MatchString(p.Repo.Name) {
				return nil, nil, fmt.Errorf("generated project name %q needs escaping", p.Repo.Name)
			}
			repos[i] = p.Repo
			if hs[i], err = newHistDoc(p.Repo); err != nil {
				return nil, nil, err
			}
		}
		return hs, repos, nil
	}
	slots, slotRepos, err := toHistories(stored)
	if err != nil {
		return nil, err
	}
	fresh, freshRepos, err := toHistories(pool)
	if err != nil {
		return nil, err
	}

	sch := &schedule{}
	cut := make([]int, spec.preload) // commits currently stored per slot
	var open []int                   // slots with commits left to extend by
	for i, r := range slotRepos {
		first := 0
		for first < len(r.Commits) && !hasDDL(r.Commits[first]) {
			first++
		}
		cut[i] = first + 1 + (len(r.Commits)-first-1)/2
		sch.preload = append(sch.preload, slots[i].body(r.Name, cut[i]))
		if cut[i] < len(r.Commits) {
			open = append(open, i)
		}
	}

	zipf := rand.NewZipf(rng, zipfS, 1, uint64(spec.preload-1))
	rank := rng.Perm(spec.preload) // popularity rank -> slot
	var cum [numOpKinds]float64
	total := 0.0
	for k := range spec.mix {
		total += spec.mix[k]
		cum[k] = total
	}
	latest := map[int]int{} // slot -> index of its live submission
	var recent []int
	news := 0
	for len(sch.ops) < n {
		x := rng.Float64() * total
		kind := opKind(0)
		for kind < numOpKinds-1 && x >= cum[kind] {
			kind++
		}
		o := op{kind: kind, key: -1, gap: rng.ExpFloat64(), orig: -1}
		if kind == opResubmit {
			for try := 0; try < 4 && len(recent) > 0; try++ {
				j := recent[rng.Intn(len(recent))]
				if latest[sch.ops[j].key] == j {
					o.orig = j
					break
				}
			}
			if o.orig < 0 {
				kind = opNew
			} else {
				orig := sch.ops[o.orig]
				o.key, o.hist, o.k, o.name = orig.key, orig.hist, orig.k, orig.name
			}
		}
		if kind == opExtend {
			if len(open) == 0 {
				kind = opNew
			} else {
				j := rng.Intn(len(open))
				slot := open[j]
				r := slotRepos[slot]
				cut[slot] = min(len(r.Commits), cut[slot]+1+rng.Intn(max(1, (len(r.Commits)-cut[slot])/3)))
				if cut[slot] == len(r.Commits) {
					open[j] = open[len(open)-1]
					open = open[:len(open)-1]
				}
				o.key, o.hist, o.k, o.name = slot, slots[slot], cut[slot], r.Name
			}
		}
		if kind == opNew {
			i := news % len(fresh)
			o.key, o.hist, o.k = spec.preload+news, fresh[i], len(freshRepos[i].Commits)
			o.name = fmt.Sprintf("new%06d-%s", news, freshRepos[i].Name)
			news++
		}
		if kind == opGet || kind == opCond {
			o.key = rank[zipf.Uint64()]
		}
		o.kind = kind
		if kind == opNew || kind == opExtend {
			latest[o.key] = len(sch.ops)
			recent = append(recent, len(sch.ops))
			if len(recent) > recentRing {
				recent = recent[1:]
			}
		}
		sch.ops = append(sch.ops, o)
	}
	return sch, nil
}

func hasDDL(c vcs.Commit) bool {
	for path := range c.Files {
		if vcs.IsDDLPath(path) {
			return true
		}
	}
	return false
}
