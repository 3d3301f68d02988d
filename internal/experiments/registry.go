package experiments

import (
	"fmt"
	"sort"
)

// Runner produces one experiment's table.
type Runner func(Config) (*Table, error)

// registry lists every experiment in presentation order. Ids match the
// per-experiment index in DESIGN.md.
var registry = []struct {
	id  string
	run Runner
}{
	{"fig2a", Fig2a}, {"fig2b", Fig2b}, {"fig2c", Fig2c},
	{"fig3a", Fig3a}, {"fig3b", Fig3b}, {"fig3c", Fig3c},
	{"tab1", Tab1}, {"tab2", Tab2},
	{"sanitize", Sanitize}, {"bias", Bias}, {"ablate", Ablate}, {"chaos", Chaos},
}

// IDs returns the known experiment ids in presentation order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Get looks up a runner by id.
func Get(id string) (Runner, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run, nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
}

// All runs every experiment in order.
func All(cfg Config) ([]*Table, error) {
	out := make([]*Table, 0, len(registry))
	for _, e := range registry {
		tbl, err := e.run(cfg)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", e.id, err)
		}
		out = append(out, tbl)
	}
	return out, nil
}
