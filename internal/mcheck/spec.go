package mcheck

import (
	"fmt"
	"strconv"
	"strings"
)

// One-line witness specs. A violation found by Check is emitted as
//
//	mcheck v1 cores=2 lines=1 banks=1 mode=eager \
//	    bug=getx-as-gets prog=R0.L0.S0/L0.R0.S0 trace=i0,d0-2,...
//
// and replayed — against the same real component stack — by Replay,
// which `rowtorture -replay` exposes on the command line. The prog
// field is each core's program ("/"-separated), one op per token:
// L<line> load, S<line> store, R<line> atomic. The trace field is the choice-label sequence: i<core>
// issues, x<core>.<line> executes a locked atomic, d<src>-<dst>
// delivers the head of a mesh channel.

// FormatSpec renders a replayable one-line witness.
func FormatSpec(cfg Config, trace []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mcheck v1 cores=%d lines=%d banks=%d mode=%s",
		cfg.Cores, cfg.Lines, cfg.Banks, modeName(cfg.Lazy))
	if cfg.Bug != "" {
		fmt.Fprintf(&sb, " bug=%s", cfg.Bug)
	}
	sb.WriteString(" prog=")
	progs := cfg.Progs
	if progs == nil {
		ops := cfg.Ops
		if ops <= 0 {
			ops = 3
		}
		progs = DefaultProgs(cfg.Cores, cfg.Lines, ops)
	}
	for ci, prog := range progs {
		if ci > 0 {
			sb.WriteByte('/')
		}
		for oi, op := range prog {
			if oi > 0 {
				sb.WriteByte('.')
			}
			fmt.Fprintf(&sb, "%s%d", op.Kind, op.Line)
		}
	}
	sb.WriteString(" trace=")
	sb.WriteString(strings.Join(trace, ","))
	return sb.String()
}

func modeName(lazy bool) string {
	if lazy {
		return "lazy"
	}
	return "eager"
}

// ParseSpec parses a witness line back into a configuration and a
// choice trace.
func ParseSpec(spec string) (Config, []string, error) {
	fields := strings.Fields(strings.TrimSpace(spec))
	if len(fields) < 2 || fields[0] != "mcheck" || fields[1] != "v1" {
		return Config{}, nil, fmt.Errorf("mcheck: spec must start with %q", "mcheck v1")
	}
	var cfg Config
	var trace []string
	for _, f := range fields[2:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Config{}, nil, fmt.Errorf("mcheck: malformed spec field %q", f)
		}
		switch k {
		case "cores", "lines", "banks":
			n, err := strconv.Atoi(v)
			if err != nil {
				return Config{}, nil, fmt.Errorf("mcheck: bad %s=%q", k, v)
			}
			switch k {
			case "cores":
				cfg.Cores = n
			case "lines":
				cfg.Lines = n
			case "banks":
				cfg.Banks = n
			}
		case "mode":
			switch v {
			case "eager":
				cfg.Lazy = false
			case "lazy":
				cfg.Lazy = true
			default:
				return Config{}, nil, fmt.Errorf("mcheck: bad mode=%q", v)
			}
		case "bug":
			cfg.Bug = v
		case "prog":
			progs, err := parseProgs(v)
			if err != nil {
				return Config{}, nil, err
			}
			cfg.Progs = progs
		case "trace":
			if v != "" {
				trace = strings.Split(v, ",")
			}
		default:
			return Config{}, nil, fmt.Errorf("mcheck: unknown spec field %q", k)
		}
	}
	if err := cfg.validate(); err != nil {
		return Config{}, nil, err
	}
	if len(cfg.Progs) != cfg.Cores {
		return Config{}, nil, fmt.Errorf("mcheck: spec has %d programs for %d cores", len(cfg.Progs), cfg.Cores)
	}
	return cfg, trace, nil
}

func parseProgs(v string) ([][]Op, error) {
	var progs [][]Op
	for _, ps := range strings.Split(v, "/") {
		var prog []Op
		if ps != "" {
			for _, tok := range strings.Split(ps, ".") {
				if len(tok) < 2 {
					return nil, fmt.Errorf("mcheck: bad program op %q", tok)
				}
				var kind OpKind
				switch tok[0] {
				case 'L':
					kind = OpLoad
				case 'S':
					kind = OpStore
				case 'R':
					kind = OpRMW
				default:
					return nil, fmt.Errorf("mcheck: bad program op %q", tok)
				}
				line, err := strconv.Atoi(tok[1:])
				if err != nil {
					return nil, fmt.Errorf("mcheck: bad program op %q", tok)
				}
				prog = append(prog, Op{Kind: kind, Line: line})
			}
		}
		progs = append(progs, prog)
	}
	return progs, nil
}

// Replay strictly re-executes a witness spec: every trace label must
// be enabled at its turn. It returns the violation the replay
// reproduces (in Result.Violation), or an error when the spec is
// malformed or a label does not apply.
func Replay(spec string) (*Result, error) {
	cfg, trace, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	m, err := NewModel(cfg)
	if err != nil {
		return nil, err
	}
	m.settle()
	m.checkState()
	applied := 0
	for _, lab := range trace {
		if m.viol != nil {
			break
		}
		ch, ok := m.findChoice(lab)
		if !ok {
			return nil, fmt.Errorf("mcheck: replay label %q (step %d) is not enabled", lab, applied+1)
		}
		m.apply(ch)
		applied++
	}
	if m.viol == nil && len(m.enabled(nil)) == 0 {
		m.checkTerminal()
	}
	res := &Result{Stats: Stats{Transitions: uint64(applied)}}
	if m.viol != nil {
		v := m.viol
		v.Trace = append([]string(nil), trace[:applied]...)
		v.Spec = FormatSpec(cfg, v.Trace)
		res.Violation = v
	}
	return res, nil
}
