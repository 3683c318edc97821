package a

import (
	"fmt"

	"starnuma/internal/metrics"
)

func emit(m *metrics.Registry, kind string, i int) {
	// Well-formed, documented names in every resolvable shape.
	m.Add("good/counter", 1)
	m.Observe("sim/queue_depth", 3)
	m.Add("good/"+kind, 1)                         // constant prefix + dynamic tail
	m.Point(fmt.Sprintf("link/s%d/util", i), 0, 1) // Sprintf constant prefix
	name := "good/" + kind
	m.Add(name+"/messages", 1) // single-assignment local

	m.Add("Bad/Name", 1)                // want `does not match the namespace grammar`
	m.Observe("bad name/x", 1)          // want `does not match the namespace grammar`
	m.Add("flat", 1)                    // want `does not match the namespace grammar`
	m.Add("undoc/x", 1)                 // want `metric namespace "undoc" is undocumented`
	m.Add(kind, 1)                      // want `cannot be statically resolved`
	m.Add(fmt.Sprintf("%s/x", kind), 1) // want `cannot be statically resolved|is malformed`
}

// reassigned is assigned twice, so its value is not statically known.
func reassigned(m *metrics.Registry, cond bool) {
	name := "good/a"
	if cond {
		name = "undoc/b"
	}
	m.Add(name, 1) // want `cannot be statically resolved`
}

// otherAdd: Add methods on non-Registry receivers are not emission
// sites and are left alone.
type counter struct{ n int }

func (c *counter) Add(name string, v int) { c.n += v }

func clean(c *counter, kind string) {
	c.Add(kind, 1)
	c.Add("Whatever Format", 2)
}
