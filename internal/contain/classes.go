package contain

import (
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
)

// Classes is the cache-sharing equivalence-class table over a slice of
// shapes. Shapes fall into one class when their CanonKeys match — the
// neighborhood congruence — so serving one class member's cached
// entries for another is byte-exact. The congruence is syntactic and
// depends only on the schema, never on the graph, so fragserver
// computes one table when it loads the schema and keeps it for the
// server's lifetime.
type Classes struct {
	// Rep[i] is the index of shape i's representative: the first shape
	// with the same canonical key. Rep[i] == i for representatives.
	Rep []int
	// NumClasses counts distinct classes.
	NumClasses int
	// Shared counts shapes that alias another shape's class (Rep[i] != i)
	// — each one is a definition whose cache entries are served from its
	// representative.
	Shared int
}

// ComputeClasses groups shapes by canonical key. It never consults the
// containment checker: mutual containment does not make neighborhoods
// byte-identical (see CanonKey), and definitions the checker proves
// redundant are reported at load as SL010 by Lint instead.
func ComputeClasses(h *schema.Schema, shapes []shape.Shape) Classes {
	cl := Classes{Rep: make([]int, len(shapes))}
	first := make(map[string]int, len(shapes))
	for i, s := range shapes {
		k := CanonKey(h, s)
		if j, ok := first[k]; ok {
			cl.Rep[i] = j
			cl.Shared++
			continue
		}
		first[k] = i
		cl.Rep[i] = i
		cl.NumClasses++
	}
	return cl
}

// Aliases materializes the table as a shape-to-representative map,
// keyed and valued by the identical shape pointers passed to
// ComputeClasses, ready for core.NeighborhoodCache.SetAliases.
// Representatives themselves are omitted.
func (cl Classes) Aliases(shapes []shape.Shape) map[shape.Shape]shape.Shape {
	if cl.Shared == 0 {
		return nil
	}
	out := make(map[shape.Shape]shape.Shape, cl.Shared)
	for i, r := range cl.Rep {
		if r != i {
			out[shapes[i]] = shapes[r]
		}
	}
	return out
}
