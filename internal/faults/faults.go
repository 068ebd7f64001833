// Package faults implements a deterministic, seeded fault injector for
// the mesh interconnect. It perturbs message delivery with per-message
// delay jitter and reordering — legal timing variations the MESI
// directory must tolerate — plus duplication and drop modes that are
// *illegal* for this protocol and exist to exercise the failure
// detection machinery (structured protocol errors, the watchdog and
// the deadlock diagnoser).
//
// Everything is driven by a SplitMix64 stream seeded from Config.Seed,
// consumed once per sent message in simulation order, so a fault
// configuration plus a seed reproduces the exact same perturbation —
// the property the torture harness's one-line reproductions rely on.
package faults

import (
	"fmt"
	"strconv"
	"strings"

	"rowsim/internal/coherence"
	"rowsim/internal/xrand"
)

// Config selects the fault mix. Probabilities are per message, in
// [0,1]. The zero value injects nothing.
type Config struct {
	// Seed seeds the injector's PRNG stream (0 is a valid seed).
	Seed uint64

	// JitterProb adds 1..JitterMax extra delivery cycles to a message.
	// Per-channel FIFO order is preserved by the mesh, so jitter is a
	// legal timing the protocol must absorb.
	JitterProb float64
	JitterMax  uint64

	// ReorderProb holds a message back by JitterMax..ReorderMax extra
	// cycles — long enough to shuffle its arrival against traffic from
	// other nodes (cross-channel reordering; same-channel order is
	// still preserved).
	ReorderProb float64
	ReorderMax  uint64

	// DupProb delivers an extra copy of the message. Illegal for this
	// protocol: used to verify that a duplicated message surfaces as a
	// structured ProtocolError rather than a crash.
	DupProb float64

	// DropProb removes the message entirely. Illegal: used to verify
	// the no-progress watchdog and deadlock diagnoser fire.
	DropProb float64
}

// Enabled reports whether the config perturbs anything.
func (c Config) Enabled() bool {
	return c.JitterProb > 0 || c.ReorderProb > 0 || c.DupProb > 0 || c.DropProb > 0
}

// withDefaults fills the magnitude knobs that make probabilities
// meaningful.
func (c Config) withDefaults() Config {
	if c.JitterProb > 0 && c.JitterMax == 0 {
		c.JitterMax = 8
	}
	if c.ReorderProb > 0 && c.ReorderMax == 0 {
		c.ReorderMax = 64
	}
	return c
}

// Spec renders the config as a compact spec string, parseable by
// ParseSpec; zero fields are omitted. Example:
// "seed=0x2a,jitter=0.2:12,reorder=0.05:64,dup=0.01,drop=0.01".
func (c Config) Spec() string {
	var parts []string
	if c.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%#x", c.Seed))
	}
	if c.JitterProb > 0 {
		parts = append(parts, fmt.Sprintf("jitter=%s:%d", fmtProb(c.JitterProb), c.JitterMax))
	}
	if c.ReorderProb > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%s:%d", fmtProb(c.ReorderProb), c.ReorderMax))
	}
	if c.DupProb > 0 {
		parts = append(parts, fmt.Sprintf("dup=%s", fmtProb(c.DupProb)))
	}
	if c.DropProb > 0 {
		parts = append(parts, fmt.Sprintf("drop=%s", fmtProb(c.DropProb)))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

func fmtProb(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) }

// ParseSpec parses a spec string produced by Spec (or hand-written).
// "" and "none" mean no faults.
func ParseSpec(s string) (Config, error) {
	var c Config
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return c, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Config{}, fmt.Errorf("faults: bad spec element %q (want key=value)", part)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		prob, max, hasMax, err := parseVal(val)
		if err != nil {
			return Config{}, fmt.Errorf("faults: bad value for %q: %v", key, err)
		}
		switch key {
		case "seed":
			seed, err := strconv.ParseUint(strings.TrimPrefix(val, "0x"), seedBase(val), 64)
			if err != nil {
				return Config{}, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			c.Seed = seed
		case "jitter":
			c.JitterProb = prob
			if hasMax {
				c.JitterMax = max
			}
		case "reorder":
			c.ReorderProb = prob
			if hasMax {
				c.ReorderMax = max
			}
		case "dup":
			c.DupProb = prob
		case "drop":
			c.DropProb = prob
		default:
			return Config{}, fmt.Errorf("faults: unknown spec key %q", key)
		}
	}
	if err := c.validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

func seedBase(val string) int {
	if strings.HasPrefix(val, "0x") {
		return 16
	}
	return 10
}

// parseVal parses "P" or "P:MAX".
func parseVal(v string) (prob float64, max uint64, hasMax bool, err error) {
	if i := strings.IndexByte(v, ':'); i >= 0 {
		max, err = strconv.ParseUint(v[i+1:], 10, 64)
		if err != nil {
			return 0, 0, false, err
		}
		hasMax = true
		v = v[:i]
	}
	if strings.HasPrefix(v, "0x") {
		return 0, max, hasMax, nil // seed value; prob unused
	}
	prob, err = strconv.ParseFloat(v, 64)
	return prob, max, hasMax, err
}

func (c Config) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"jitter", c.JitterProb}, {"reorder", c.ReorderProb},
		{"dup", c.DupProb}, {"drop", c.DropProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	return nil
}

// Stats counts the injector's decisions.
type Stats struct {
	Messages   uint64
	Jittered   uint64
	Reordered  uint64
	Duplicated uint64
	Dropped    uint64
}

// Injector perturbs message deliveries. It implements the mesh's
// Perturber interface. Not safe for concurrent use: each simulated
// system owns one injector.
type Injector struct {
	cfg   Config
	rng   *xrand.RNG
	stats Stats
	buf   []uint64
}

// New builds an injector from the config (magnitude defaults applied).
func New(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{cfg: cfg, rng: xrand.New(cfg.Seed), buf: make([]uint64, 0, 2)}
}

// Config returns the effective configuration.
func (in *Injector) Config() Config { return in.cfg }

// Stats returns the decision counts so far.
func (in *Injector) Stats() Stats { return in.stats }

// Perturb implements interconnect.Perturber. The returned slice is
// reused across calls.
func (in *Injector) Perturb(m *coherence.Msg) []uint64 {
	in.stats.Messages++
	in.buf = in.buf[:0]
	if in.cfg.DropProb > 0 && in.rng.Bool(in.cfg.DropProb) {
		in.stats.Dropped++
		return in.buf
	}
	var delay uint64
	if in.cfg.JitterProb > 0 && in.rng.Bool(in.cfg.JitterProb) {
		in.stats.Jittered++
		delay += 1 + in.rng.Uint64()%in.cfg.JitterMax
	}
	if in.cfg.ReorderProb > 0 && in.rng.Bool(in.cfg.ReorderProb) {
		in.stats.Reordered++
		span := in.cfg.ReorderMax
		if span <= in.cfg.JitterMax {
			span = in.cfg.JitterMax + 1
		}
		delay += in.cfg.JitterMax + 1 + in.rng.Uint64()%(span-in.cfg.JitterMax)
	}
	in.buf = append(in.buf, delay)
	if in.cfg.DupProb > 0 && in.rng.Bool(in.cfg.DupProb) {
		in.stats.Duplicated++
		in.buf = append(in.buf, delay+1+in.rng.Uint64()%8)
	}
	return in.buf
}
