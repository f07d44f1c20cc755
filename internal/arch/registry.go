package arch

import (
	"fmt"
	"strings"

	"gpa/internal/apierr"
)

// model is one table entry: a GPU constructor keyed by a short
// canonical name, lookup aliases, and the SM flags KeyOf maps to it.
type model struct {
	// Key is the canonical short name ("v100").
	Key string
	// Aliases are additional Lookup keys ("volta", "sm_70").
	Aliases []string
	// SMFlags are the GPU.SM values KeyOf names this model by.
	SMFlags []int
	// Build constructs a fresh GPU value.
	Build func() *GPU
}

// models holds the bundled models in presentation order (by SM flag).
// A model is added by appending an entry here; TestAllCompleteness
// holds every key, alias, full name and flag unique and the order by
// flag.
var models = []model{
	{
		Key:     "v100",
		Aliases: []string{"volta", "volta-v100", "sm_70", "sm_72"},
		SMFlags: []int{70, 72},
		Build:   VoltaV100,
	},
	{
		Key:     "t4",
		Aliases: []string{"turing", "turing-t4", "sm_75"},
		SMFlags: []int{75},
		Build:   TuringT4,
	},
	{
		Key:     "a100",
		Aliases: []string{"ampere", "ampere-a100", "sm_80"},
		SMFlags: []int{80},
		Build:   AmpereA100,
	},
}

// normalize canonicalizes a lookup key: lower case, surrounding space
// stripped.
func normalize(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Lookup resolves an architecture by name: the canonical key ("a100"),
// an alias ("ampere", "sm_80"), or the model's full Name
// ("A100-SXM4"), case-insensitively. It returns a fresh GPU value.
func Lookup(name string) (*GPU, error) {
	want := normalize(name)
	if want == "" {
		return nil, fmt.Errorf("arch: %w: empty architecture name (known: %s)",
			apierr.ErrUnknownArch, knownKeys())
	}
	for _, e := range models {
		if normalize(e.Key) == want {
			return e.Build(), nil
		}
		for _, a := range e.Aliases {
			if normalize(a) == want {
				return e.Build(), nil
			}
		}
		if g := e.Build(); normalize(g.Name) == want {
			return g, nil
		}
	}
	return nil, fmt.Errorf("arch: %w: %q (known: %s)", apierr.ErrUnknownArch, name, knownKeys())
}

// All returns a fresh GPU value for every bundled model, in table
// (SM flag) order, so sweeps across architectures are deterministic.
func All() []*GPU {
	out := make([]*GPU, 0, len(models))
	for _, e := range models {
		out = append(out, e.Build())
	}
	return out
}

// KeyOf returns the canonical table key for a GPU model (matching by
// SM flag, falling back to the normalized model name).
func KeyOf(g *GPU) string {
	for _, e := range models {
		for _, sm := range e.SMFlags {
			if sm == g.SM {
				return e.Key
			}
		}
	}
	return normalize(g.Name)
}

// knownKeys renders the lookup keys, in table order, for error
// messages.
func knownKeys() string {
	keys := make([]string, 0, len(models))
	for _, e := range models {
		keys = append(keys, e.Key)
	}
	return strings.Join(keys, ", ")
}
