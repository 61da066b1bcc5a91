package check

import (
	"encoding/binary"
	"sort"

	"opentla/internal/form"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// imager holds the image of every graph state under a refinement mapping
// (see SafetyUnder). A nil imager stands for no mapping: it has no images.
// Images are the graph states widened by the mapped variables through one
// state.Extension, so the image layout is known before any image is built.
//
// A mapped value is a function of the codes of the variables it reads, and
// a graph has far fewer distinct tuples of those codes than states (Fig. 9
// at K=3: 144 for 3186 states), so each mapped value is evaluated once per
// tuple, compiled, and remembered as an update whose code is resolved: a
// remembered image costs a row scatter and one code write per mapped
// variable. An imager is not safe for concurrent use.
type imager struct {
	states []*state.State
	mapped []*mappedVal      // mapped[j]: extra variable j, by name
	src    state.Layout      // the graph layout
	x      *state.Extension  // graph layout → image layout; nil for an empty graph
	ups    []state.PosUpdate // scratch for of
	images []*state.State    // by state id; nil where the mapping fails
	layout []string          // variables of every image

	// read holds the graph variables the mapping reads unprimed.
	read map[string]bool
	// onto caches side conditions 1 and 3 of abstractSide: unknown until
	// first asked, then whether they hold.
	onto *bool
}

// mappedVal is one mapped variable's value, compiled against the graph
// layout and memoized by the codes of the graph variables it reads.
type mappedVal struct {
	name  string
	e     form.Expr
	eval  form.CompiledVal
	reads []int // graph-layout positions of the variables e reads unprimed
	memo  map[string]mappedResult
	key   []byte // scratch for the memo key
}

// mappedResult is a remembered mapped value: its resolved update, or ok
// false where the value fails to evaluate.
type mappedResult struct {
	up state.PosUpdate
	ok bool
}

// imagesOf returns the imager of g under mapping with every state's image
// built; cur records the state being mapped, for panic capture.
func imagesOf(g *ts.Graph, mapping map[string]form.Expr, cur **state.State) (*imager, error) {
	im := &imager{states: g.States, images: make([]*state.State, len(g.States))}
	if len(g.States) == 0 {
		return im, nil
	}
	names := make([]string, 0, len(mapping))
	for name := range mapping {
		names = append(names, name)
	}
	sort.Strings(names)
	src := g.States[0]
	layout := src.Vars()
	im.read = map[string]bool{}
	for _, name := range names {
		e := mapping[name]
		mv := &mappedVal{name: name, e: e, eval: form.CompileVal(e, layout), memo: make(map[string]mappedResult)}
		// A mapped value is evaluated with no successor state, so a primed
		// variable, or one the graph does not bind, fails wherever it is
		// evaluated: the value, or its failure, is a function of the codes
		// of the graph variables it reads unprimed.
		unprimed, _ := form.FreeVars(e)
		for _, v := range unprimed {
			if p, ok := src.PosOf(v); ok {
				mv.reads = append(mv.reads, p)
				im.read[v] = true
			}
		}
		mv.key = make([]byte, 4*len(mv.reads))
		im.mapped = append(im.mapped, mv)
	}
	x, err := state.NewExtension(src.Layout(), names, nil)
	if err != nil {
		return nil, err
	}
	im.src, im.x, im.ups, im.layout = src.Layout(), x, make([]state.PosUpdate, len(names)), x.Layout().Vars()
	m := g.Meter()
	for id, s := range g.States {
		if err := m.Tick(); err != nil {
			return nil, err
		}
		*cur = s
		if im.images[id], err = im.of(s); err != nil {
			return nil, err
		}
	}
	return im, nil
}

// of returns the image of s: s with every mapped variable bound to its
// mapped value, or nil if one fails to evaluate on s. A state off the
// graph's layout is an error.
func (im *imager) of(s *state.State) (*state.State, error) {
	if s.Layout() != im.src {
		return im.x.Extend(s, im.ups) // reports the layout error
	}
	for j, mv := range im.mapped {
		r := mv.value(im.x, j, s)
		if !r.ok {
			return nil, nil
		}
		im.ups[j] = r.up
	}
	return im.x.Extend(s, im.ups)
}

// value returns extra variable j's value on s, a state over the graph
// layout, from the memo when s's codes at mv.reads were seen before.
func (mv *mappedVal) value(x *state.Extension, j int, s *state.State) mappedResult {
	for i, p := range mv.reads {
		binary.LittleEndian.PutUint32(mv.key[4*i:], s.CodeAt(p))
	}
	if r, ok := mv.memo[string(mv.key)]; ok {
		return r
	}
	var r mappedResult
	if v, err := mv.eval(state.Step{From: s}); err == nil {
		r = mappedResult{up: x.Resolve(j, v), ok: true}
	}
	mv.memo[string(mv.key)] = r
	return r
}

// maxOntoPoints caps the points abstractSide maps to decide whether the
// mapping is onto: the product of the domains of the variables it reads.
// Past it the masks are substituted. Mapping a point costs a few
// microseconds (BenchmarkMapsOnto, 2-vCPU x86-64 box: about 0.2 s for
// 2¹⁶ points of 16 variables, about 4 s for 2²⁰ of 20), while Fig. 9 maps
// 192 points at N=1 K=3 and 7056 at N=2 K=4.
const maxOntoPoints = 1 << 16

// abstractSide reports whether ENABLED ⟨A⟩_v under the mapping F may be
// read on the abstract side, as ENABLED raw on each state's image, where
// raw is ⟨A⟩_v before substitution. Write D_c for the product of the
// declared domains of the graph variables F reads and D_a for that of the
// mapped variables. The side conditions are
//
//  1. no mapped name is a graph variable;
//  2. no variable F reads occurs free in raw;
//  3. F reads graph variables only, none primed, and maps D_c onto
//     exactly D_a.
//
// The substituted action Ā(s,t) is A(F(s),F(t)), and by 2 the variables
// ENABLED Ā enumerates are those F reads, ranging over D_c, and raw's own,
// ranging over their domains in both readings. By 3 the mapped successors
// F(t) range over exactly D_a, which is what ENABLED raw enumerates on the
// image; by 1 the image binds F(s) without losing a graph variable. So the
// two masks agree wherever both evaluate. Conditions 1 and 3 belong to the
// mapping and the domains and are decided once per imager.
func (im *imager) abstractSide(g *ts.Graph, raw form.Expr) bool {
	if im == nil || im.x == nil {
		return false
	}
	if im.onto == nil {
		onto := im.mapsOnto(g)
		im.onto = &onto
	}
	if !*im.onto {
		return false
	}
	for _, v := range form.AllVars(raw) {
		if im.read[v] {
			return false
		}
	}
	return true
}

// mapsOnto reports whether side conditions 1 and 3 of abstractSide hold
// under g's declared domains. It ticks g's meter once per point of D_c it
// maps, and reports false once the budget is exhausted.
func (im *imager) mapsOnto(g *ts.Graph) bool {
	doms := g.Ctx.Domains
	for _, mv := range im.mapped {
		if _, bound := im.states[0].PosOf(mv.name); bound {
			return false
		}
		if unprimed, primed := form.FreeVars(mv.e); len(primed) > 0 || len(unprimed) > len(mv.reads) {
			return false
		}
	}
	// The read variables, over a layout of their own.
	reads := make([]string, 0, len(im.read))
	for v := range im.read {
		reads = append(reads, v)
	}
	sort.Strings(reads)
	points, images := 1, 1
	for _, v := range reads {
		if points *= len(doms[v]); points == 0 || points > maxOntoPoints {
			return false
		}
	}
	// Each mapped value's domain, indexed, and its stride in an ordinal
	// numbering the points of D_a. More points of D_a than of D_c cannot
	// all be hit.
	index := make([]*value.Index, len(im.mapped))
	stride := make([]int, len(im.mapped))
	evals := make([]form.CompiledVal, len(im.mapped))
	for j, mv := range im.mapped {
		dom := doms[mv.name]
		if images *= len(dom); images == 0 || images > points {
			return false
		}
		stride[j] = images / len(dom)
		index[j] = value.NewIndex(dom)
		evals[j] = form.CompileVal(mv.e, reads)
	}
	m := g.Meter()
	hit := make([]bool, images)
	left := images
	complete := value.ForEachAssignment(reads, doms, func(asgn map[string]value.Value) bool {
		if m.Tick() != nil {
			return false
		}
		st := state.Step{From: state.New(asgn)}
		ord := 0
		for j, eval := range evals {
			v, err := eval(st)
			if err != nil {
				return false
			}
			k := index[j].IndexOf(v)
			if k < 0 {
				return false // F leaves D_a
			}
			ord += k * stride[j]
		}
		if !hit[ord] {
			hit[ord] = true
			left--
		}
		return true
	})
	return complete && left == 0
}
