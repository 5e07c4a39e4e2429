// Package faultinject provides deterministic, seed-driven fault injection
// at named sites. It exists so the chaos tests (and the CLIs' -fault-seed
// mode) can subject the analysis pipeline to the failure modes a real
// mining run meets — I/O errors, bit-rot, stalls, and outright panics —
// while staying perfectly reproducible: whether a given (site, key) pair
// faults, and with which kind, is a pure function of the injector's seed,
// independent of scheduling, parallelism, or wall-clock time.
//
// A site is a stable string naming a code location ("cache.read",
// "pipeline.parse", "vcs.open", ...); a key identifies the unit of work
// flowing through it (a project name, a fingerprint, a path). Call sites
// ask At(site, key) for the fault to apply and honor only the kinds that
// make sense there (a pipeline stage cannot corrupt bytes; a byte reader
// cannot panic usefully). A nil *Injector is valid and injects nothing,
// so production paths carry no conditional wiring.
package faultinject

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the class of fault to inject at a site.
type Kind int

const (
	// KindNone means the site proceeds normally.
	KindNone Kind = iota
	// KindErr makes the site fail with an *Error.
	KindErr
	// KindCorrupt makes the site flip bytes in the data it handles.
	KindCorrupt
	// KindDelay makes the site stall for the configured Delay.
	KindDelay
	// KindPanic makes the site panic.
	KindPanic
)

// AllKinds lists every injectable fault kind.
var AllKinds = []Kind{KindErr, KindCorrupt, KindDelay, KindPanic}

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindErr:
		return "io-error"
	case KindCorrupt:
		return "corrupt"
	case KindDelay:
		return "delay"
	case KindPanic:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Error is the error injected for KindErr faults, standing for an I/O
// failure at the site.
type Error struct {
	Site string
	Key  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected I/O fault at %s (%s)", e.Site, e.Key)
}

// Config parameterizes an Injector.
type Config struct {
	// Seed drives every injection decision; two injectors with equal
	// configs make identical decisions.
	Seed int64
	// Rate is the fraction of (site, key) pairs that fault, in [0, 1].
	// Rates <= 0 make the injector inert.
	Rate float64
	// Kinds restricts the fault kinds drawn; nil selects AllKinds.
	Kinds []Kind
	// Sites restricts injection to the named sites; nil allows every site.
	Sites []string
	// Delay is the stall applied for KindDelay faults (default 1ms).
	Delay time.Duration
}

// Injector decides, deterministically, which (site, key) pairs fault and
// how. Safe for concurrent use.
type Injector struct {
	cfg   Config
	sites map[string]bool

	// observer, when set, is invoked for every fault that fires, with the
	// site and the kind's string form. It must not affect injection
	// decisions — it is a telemetry tap, not a control hook.
	observer atomic.Pointer[func(site, kind string)]

	mu    sync.Mutex
	fired map[string]int
}

// SetObserver installs (or, with nil, removes) a callback invoked on every
// fired fault. The callback must be safe for concurrent use. Nil-safe.
func (in *Injector) SetObserver(fn func(site, kind string)) {
	if in == nil {
		return
	}
	if fn == nil {
		in.observer.Store(nil)
		return
	}
	in.observer.Store(&fn)
}

// New builds an injector from cfg, applying the documented defaults.
func New(cfg Config) *Injector {
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = AllKinds
	}
	if cfg.Delay <= 0 {
		cfg.Delay = time.Millisecond
	}
	in := &Injector{cfg: cfg, fired: map[string]int{}}
	if len(cfg.Sites) > 0 {
		in.sites = make(map[string]bool, len(cfg.Sites))
		for _, s := range cfg.Sites {
			in.sites[s] = true
		}
	}
	return in
}

// hash64 mixes the seed, site and key into one well-distributed 64-bit
// value: FNV-1a over the inputs, then a murmur-style avalanche finalizer
// (plain FNV leaves the low bits of short, similar keys correlated, which
// would make the fire decision near-constant across a corpus).
func hash64(seed int64, site, key string) uint64 {
	f := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	f.Write(b[:])
	f.Write([]byte(site))
	f.Write([]byte{0})
	f.Write([]byte(key))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// At returns the fault kind to inject at site for key, or KindNone. The
// decision depends only on (seed, site, key): the same injector returns
// the same answer every time, under any concurrency. Nil-safe.
func (in *Injector) At(site, key string) Kind {
	if in == nil || in.cfg.Rate <= 0 {
		return KindNone
	}
	if in.sites != nil && !in.sites[site] {
		return KindNone
	}
	h := hash64(in.cfg.Seed, site, key)
	// The low 32 bits decide whether to fire; the high bits pick the kind,
	// so rate and kind selection stay independent.
	if float64(uint32(h))/float64(1<<32) >= in.cfg.Rate {
		return KindNone
	}
	k := in.cfg.Kinds[int((h>>32)%uint64(len(in.cfg.Kinds)))]
	in.mu.Lock()
	in.fired[site+"/"+k.String()]++
	in.mu.Unlock()
	if obs := in.observer.Load(); obs != nil {
		(*obs)(site, k.String())
	}
	return k
}

// Sleep stalls for the configured Delay, returning early if ctx is
// cancelled, so delayed workers never outlive their run. Nil-safe.
func (in *Injector) Sleep(ctx context.Context) {
	if in == nil {
		return
	}
	t := time.NewTimer(in.cfg.Delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Mangle deterministically flips bytes of data in place (seeded by the
// injector seed and key), guaranteeing at least one change when data is
// non-empty. It simulates bit-rot for KindCorrupt faults. Nil-safe: a nil
// injector leaves data untouched.
func (in *Injector) Mangle(data []byte, key string) {
	if in == nil || len(data) == 0 {
		return
	}
	h := hash64(in.cfg.Seed, "mangle", key)
	// Flip 1–4 bytes at hash-derived offsets; XOR with a non-zero mask so
	// every flip really changes the byte.
	n := 1 + int(h%4)
	for i := 0; i < n; i++ {
		h = h*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
		off := int(h % uint64(len(data)))
		mask := byte(h >> 56)
		if mask == 0 {
			mask = 0xFF
		}
		data[off] ^= mask
	}
}

// Fired returns a copy of the per-(site, kind) injection counters, keyed
// "site/kind". Nil-safe.
func (in *Injector) Fired() map[string]int {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int, len(in.fired))
	for k, v := range in.fired {
		out[k] = v
	}
	return out
}

// Summary renders the fired counters as one sorted line, for logs.
func (in *Injector) Summary() string {
	f := in.Fired()
	if len(f) == 0 {
		return "no faults injected"
	}
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s×%d", k, f[k]))
	}
	return strings.Join(parts, " ")
}
