package contain_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"shaclfrag/internal/contain"
	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shaclsyn"
	"shaclfrag/internal/shape"
)

// classShapes is the shape list fragserver computes its classes over:
// the per-definition request shapes followed by the definition bodies.
func classShapes(h *schema.Schema) []shape.Shape {
	out := append([]shape.Shape{}, core.SchemaRequests(h)...)
	for _, d := range h.Definitions() {
		out = append(out, d.Shape)
	}
	return out
}

// TestComputeClassesPinned pins the grouping on the benchmark schema and
// the committed example schemas: every shape is its own representative
// except the listed aliases. The table was recorded when ComputeClasses
// still ran a pairwise containment sweep after grouping, so it shows the
// sweep never influenced which shapes share cache entries.
func TestComputeClassesPinned(t *testing.T) {
	parse := func(file string) *schema.Schema {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "shapes", file))
		if err != nil {
			t.Fatal(err)
		}
		h, err := shaclsyn.ParseSchema(string(src))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for _, tc := range []struct {
		name                    string
		h                       *schema.Schema
		shapes, classes, shared int
		aliases                 map[int]int // shape index → representative
	}{
		// S56's request is ≥1 name.⊤ ∧ ≥1 name.⊤, which dedupes to the
		// bodies of S01 and S56; S26 and S27 share a body.
		{"benchmark", datagen.BenchmarkSchema(), 114, 111, 3, map[int]int{57: 55, 83: 82, 112: 55}},
		{"tourism.ttl", parse("tourism.ttl"), 14, 14, 0, nil},
		{"workshop.ttl", parse("workshop.ttl"), 6, 5, 1, map[int]int{4: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shapes := classShapes(tc.h)
			cl := contain.ComputeClasses(tc.h, shapes)
			if len(shapes) != tc.shapes || cl.NumClasses != tc.classes || cl.Shared != tc.shared {
				t.Fatalf("%d shapes, %d classes, %d shared; want %d, %d, %d",
					len(shapes), cl.NumClasses, cl.Shared, tc.shapes, tc.classes, tc.shared)
			}
			want := make([]int, tc.shapes)
			for i := range want {
				want[i] = i
			}
			for i, r := range tc.aliases {
				want[i] = r
			}
			if !slices.Equal(cl.Rep, want) {
				t.Fatalf("Rep = %v\nwant  %v", cl.Rep, want)
			}
		})
	}
}
