package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// HotallocWaiver suppresses the hotalloc rule on the allocation site (or the
// whole function declaration) it annotates, asserting the allocation is
// amortized (ring growth, timer-wheel bucket doubling) or off the per-cycle
// path (a once-per-stream spill, an abort). A declaration-level waiver — the
// marker anywhere in the function's doc comment — accepts every site in that
// function and stops the walk from descending into it.
const HotallocWaiver = "lint:hotalloc-ok"

// HotPathMarker annotates a function declaration as a hot-path root in its
// doc comment. Tick methods on component types and Push/Pop-family methods
// on link- or queue-shaped types are roots implicitly; the marker exists for
// the per-cycle loops the shape rules cannot see (the wake scheduler's
// stepSerial/stepParallel, link commit).
const HotPathMarker = "hot:path"

// hotOpNames are the implicit hot-path root methods on types with a
// Push+Pop shape (sim.Link, ring.Queue): the steady-state data movement ops
// whose zero-allocation property PR 5 established at runtime via
// testing.AllocsPerRun.
var hotOpNames = map[string]bool{
	"Push": true, "Pop": true, "Peek": true, "Drop": true, "DropN": true,
	"PushRef": true, "PushRefDirty": true, "PushEOS": true, "StageVec": true,
}

// allocFreePkgs are packages every call into which is accepted: pure
// arithmetic with no allocating entry points.
var allocFreePkgs = map[string]bool{
	"math/bits": true,
	"math":      true,
}

// knownAllocFree are audited cross-package callees the walk accepts without
// seeing their bodies. The entries are steady-state allocation-free: the
// amortized growth inside ring.Queue and sim.Link is waived (and reviewed)
// at its definition, where the backing-store reuse argument lives, and each
// carrier package runs the same analyzer over those bodies as roots.
// Keyed like knownPureCalls: "pkgPathSuffix.Type.Method" or
// "pkgPathSuffix.Func".
var knownAllocFree = map[string]bool{
	// ring.Queue steady-state ops (growth waived in ring.go).
	"internal/ring.Queue.Len": true, "internal/ring.Queue.Empty": true,
	"internal/ring.Queue.Front": true, "internal/ring.Queue.At": true,
	"internal/ring.Queue.Push": true, "internal/ring.Queue.Pop": true,
	"internal/ring.Queue.Drop": true, "internal/ring.Queue.DropN": true,
	"internal/ring.Queue.PushRef": true, "internal/ring.Queue.PushRefDirty": true,
	"internal/ring.Queue.Reset": true,
	// ring.Slots arena ops (growth waived in slots.go).
	"internal/ring.Slots.Alloc": true, "internal/ring.Slots.Release": true,
	"internal/ring.Slots.At": true,
	// sim.Link ring-buffer ops (fixed ring allocated at construction).
	"internal/sim.Link.CanPush": true, "internal/sim.Link.Empty": true,
	"internal/sim.Link.Peek": true, "internal/sim.Link.Pop": true,
	"internal/sim.Link.Drop": true, "internal/sim.Link.Push": true,
	"internal/sim.Link.PushEOS": true, "internal/sim.Link.StageVec": true,
	"internal/sim.Link.Drained": true, "internal/sim.Link.Name": true,
	"internal/sim.Link.Capacity": true, "internal/sim.Link.Latency": true,
	"internal/sim.Link.Pushes": true, "internal/sim.Link.Pops": true,
	// sim.Counter handles are pre-resolved pointers (PR 5).
	"internal/sim.Counter.Add": true, "internal/sim.Counter.Value": true,
	// record.Vector / record.Rec are fixed-size values. Vector.Records is
	// deliberately absent — it allocates a fresh slice per call (use
	// AppendRecords on a recycled accumulator instead), and AppendRecords
	// stays a warning because whether it grows depends on the caller's
	// accumulator capacity.
	"internal/record.Vector.Push": true, "internal/record.Vector.Reset": true,
	"internal/record.Vector.Valid": true, "internal/record.Vector.Len": true,
	"internal/record.Vector.Count": true, "internal/record.Vector.PushRef": true,
	"internal/record.Rec.Get": true, "internal/record.Rec.Len": true,
	"internal/record.Rec.Append": true, "internal/record.Rec.Set": true,
	"internal/record.Make": true,
	// sync/atomic typed wrappers compile to single load/store/RMW
	// instructions on a field the caller already owns.
	"sync/atomic.Int64.Load": true, "sync/atomic.Int64.Store": true,
	"sync/atomic.Int64.Add": true, "sync/atomic.Int64.CompareAndSwap": true,
	"sync/atomic.Uint64.Load": true, "sync/atomic.Uint64.Store": true,
	"sync/atomic.Uint64.Add": true, "sync/atomic.Uint64.CompareAndSwap": true,
	// reflect.TypeOf returns the interned rtype; the argument here is
	// always a pointer, which boxes without allocating.
	"reflect.TypeOf": true,
	// The HBM's request path. In-flight reads live in a slot arena whose
	// slots and data buffers are reused, the completion FIFOs are reserved
	// at construction, and backing pages are allocated on first touch:
	// each grows to a bound — the most reads in flight, the pages a run
	// addresses — and then stays put. The dram package's AllocsPerRun test
	// of a warmed read pins this at 0 allocations per request.
	"internal/dram.HBM.SubmitAt": true, "internal/dram.HBM.Tick": true,
	"internal/dram.HBM.ReadWord": true,
}

// interfaceContractMethods are dynamic calls the per-cycle loop makes
// through the simulator's own interfaces (sim.Component and friends). The
// implementations are themselves hot-path roots of this analyzer, so the
// dispatch is not a blind spot — each concrete Tick/Idle body is walked
// where it is defined.
//
// Complete is dram.Completer's: the HBM calls it when a request finishes,
// and every implementation (a method Complete(int32, []uint32)) is a root.
var interfaceContractMethods = map[string]bool{
	"Tick": true, "Idle": true, "Done": true, "Drained": true, "Empty": true,
	"CanPush": true, "WakeHint": true, "Name": true, "SharedState": true,
	"InputLinks": true, "OutputLinks": true, "WorstCaseInternalLatency": true,
	"HostsCallbacks": true, "Stats": true, "Complete": true,
}

// Hotalloc is the static half of the zero-allocation contract PR 5 enforces
// dynamically with testing.AllocsPerRun: a memoized call-graph walk from the
// hot-path roots — every component Tick, every dram.Completer's Complete,
// the sim.Link and ring.Queue data-movement ops, and functions annotated
// "hot:path" (the wake scheduler's per-cycle loop) — that flags the allocation sites Go hides in
// plain syntax:
//
//   - make/new calls and slice/map composite literals;
//   - &T{...} literals (escape to the heap whenever the pointer outlives
//     the frame — the walk cannot prove it does not);
//   - append (growth reallocates the backing array);
//   - map assignment (inserts allocate buckets);
//   - function literals capturing outer variables (the closure cell);
//   - conversions and assignments boxing a non-pointer value into an
//     interface;
//   - non-constant string concatenation;
//   - any call into fmt or errors (formatting allocates by design);
//   - goroutine launches.
//
// Same-package callees are walked recursively; cross-package callees must be
// on the audited allocation-free allowlist, and everything else is a
// warning-severity finding — the walk cannot see the body, so the site is
// suspect but not proven (run the analyzer over the callee's package to
// promote or clear it). Calls through function values (datapath closures
// like fabric.Map's fn) are exempt: per-kernel code is covered by the
// runtime AllocsPerRun gates, while this analyzer proves the engine around
// it. Panic arguments are exempt too — aborting the simulation may format.
//
// The runtime gate says *whether* a hot loop allocates; this analyzer says
// *where*, per site, before any benchmark runs. A reviewed amortization
// argument carries a "lint:hotalloc-ok" marker on the site or the enclosing
// declaration.
var Hotalloc = &Analyzer{
	Name:       "hotalloc",
	Doc:        "hot-path functions (Tick, link/queue ops, hot:path roots) must not reach allocation sites",
	NeedsTypes: true,
	Run:        runHotalloc,
}

func runHotalloc(pass *Pass) error {
	aw := newAllocWalker(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			root, why := aw.isRoot(fd)
			if !root {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			aw.visit(obj, why)
		}
	}
	return nil
}

// allocWalker memoizes the hot-path allocation walk across one package.
type allocWalker struct {
	pass    *Pass
	decls   map[types.Object]*ast.FuncDecl
	visited map[types.Object]bool
	// warned dedups unprovable-callee warnings per (caller, callee).
	warned map[[2]types.Object]bool
}

func newAllocWalker(pass *Pass) *allocWalker {
	aw := &allocWalker{
		pass:    pass,
		decls:   make(map[types.Object]*ast.FuncDecl),
		visited: make(map[types.Object]bool),
		warned:  make(map[[2]types.Object]bool),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					aw.decls[obj] = fd
				}
			}
		}
	}
	return aw
}

// isRoot classifies a declaration as a hot-path root and names the reason.
func (aw *allocWalker) isRoot(fd *ast.FuncDecl) (bool, string) {
	if fd.Doc != nil && strings.Contains(fd.Doc.Text(), HotPathMarker) {
		return true, "hot:path " + fd.Name.Name
	}
	if fd.Recv == nil {
		return false, ""
	}
	named := receiverNamed(aw.pass, fd)
	if named == nil {
		return false, ""
	}
	if fd.Name.Name == "Tick" && isComponentType(named) {
		return true, named.Obj().Name() + "." + fd.Name.Name
	}
	if fd.Name.Name == "Complete" && isCompleter(aw.pass, fd) {
		return true, named.Obj().Name() + "." + fd.Name.Name
	}
	if hotOpNames[fd.Name.Name] && hasPushPop(named) {
		return true, named.Obj().Name() + "." + fd.Name.Name
	}
	return false, ""
}

// isCompleter reports whether fd has dram.Completer's signature,
// Complete(int32, []uint32) with no results: the completion callback the
// HBM invokes from its tick.
func isCompleter(pass *Pass, fd *ast.FuncDecl) bool {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	tag, ok := sig.Params().At(0).Type().Underlying().(*types.Basic)
	if !ok || tag.Kind() != types.Int32 {
		return false
	}
	data, ok := sig.Params().At(1).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	w, ok := data.Elem().Underlying().(*types.Basic)
	return ok && w.Kind() == types.Uint32
}

// hasPushPop reports whether *T has both Push and Pop methods — the
// link/queue shape whose data-movement ops are implicit roots.
func hasPushPop(named *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	hasPush, hasPop := false, false
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Push":
			hasPush = true
		case "Pop":
			hasPop = true
		}
	}
	return hasPush && hasPop
}

// declWaived reports whether the function's doc comment carries the waiver,
// accepting every site inside.
func (aw *allocWalker) declWaived(fd *ast.FuncDecl) bool {
	return fd.Doc != nil && strings.Contains(fd.Doc.Text(), HotallocWaiver)
}

// visit walks one function reached from a hot root, reporting its
// allocation sites and recursing into same-package callees. Each function
// is analyzed once; `via` names the first root that reached it.
func (aw *allocWalker) visit(obj types.Object, via string) {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	if aw.visited[obj] {
		return
	}
	aw.visited[obj] = true
	fd := aw.decls[obj]
	if fd == nil {
		return
	}
	if aw.declWaived(fd) {
		return
	}
	aw.scan(fd, via)
}

// coldRanges collects source ranges exempt from the scan: panic arguments.
func coldRanges(body ast.Node, info *types.Info) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				out = append(out, [2]token.Pos{call.Pos(), call.End()})
				return false
			}
		}
		return true
	})
	return out
}

// scan reports the allocation sites in one function body.
func (aw *allocWalker) scan(fd *ast.FuncDecl, via string) {
	cold := coldRanges(fd.Body, aw.pass.TypesInfo)
	isCold := func(p token.Pos) bool {
		for _, r := range cold {
			if r[0] <= p && p <= r[1] {
				return true
			}
		}
		return false
	}
	site := func(pos token.Pos, format string, args ...any) {
		if isCold(pos) || aw.pass.Waived(pos, HotallocWaiver) {
			return
		}
		args = append(args, fd.Name.Name, via, HotallocWaiver)
		aw.pass.Reportf(pos, format+" in %s (hot path via %s); hoist it off the per-cycle path or justify it with a %s marker", args...)
	}
	info := aw.pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			aw.scanCall(fd, x, via, site, isCold)
			if id, ok := x.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return false // cold: aborts the run
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, isLit := x.X.(*ast.CompositeLit); isLit {
					site(x.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[x]; ok {
				switch types.Unalias(tv.Type).Underlying().(type) {
				case *types.Slice:
					site(x.Pos(), "slice literal allocates its backing array")
					return false // elements are covered by this site
				case *types.Map:
					site(x.Pos(), "map literal allocates")
					return false
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if tv, ok := info.Types[ix.X]; ok {
						if _, isMap := types.Unalias(tv.Type).Underlying().(*types.Map); isMap {
							site(lhs.Pos(), "map assignment may allocate buckets")
						}
					}
				}
			}
			aw.scanBoxing(x, site)
		case *ast.FuncLit:
			if capturesOuter(aw.pass, fd, x) {
				site(x.Pos(), "closure captures variables (allocates the capture cell)")
			}
			// The literal's body typically runs on a hot path too
			// (completion callbacks fire inside the memory model's tick):
			// keep scanning inside it.
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := info.Types[x]; ok && tv.Value == nil {
					if b, ok := types.Unalias(tv.Type).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						site(x.Pos(), "string concatenation allocates")
						return false // one site per concat chain
					}
				}
			}
		case *ast.GoStmt:
			site(x.Pos(), "goroutine launch allocates a stack")
		}
		return true
	})
}

// scanBoxing flags assignments that box a non-pointer concrete value into an
// interface-typed destination.
func (aw *allocWalker) scanBoxing(as *ast.AssignStmt, site func(token.Pos, string, ...any)) {
	info := aw.pass.TypesInfo
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		var lt types.Type
		if id, ok := lhs.(*ast.Ident); ok && as.Tok == token.DEFINE {
			if obj := info.Defs[id]; obj != nil {
				lt = obj.Type()
			}
		} else if tv, ok := info.Types[lhs]; ok {
			lt = tv.Type
		}
		if lt == nil || !types.IsInterface(types.Unalias(lt)) {
			continue
		}
		if boxes(info, as.Rhs[i]) {
			site(as.Rhs[i].Pos(), "boxing a non-pointer value into an interface allocates")
		}
	}
}

// boxes reports whether storing e into an interface allocates: a concrete
// non-pointer, non-interface, non-nil value wider than a machine word does.
func boxes(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	t := types.Unalias(tv.Type)
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Signature, *types.Chan, *types.Map:
		return false
	}
	return true
}

// scanCall classifies one call on the hot path.
func (aw *allocWalker) scanCall(fd *ast.FuncDecl, call *ast.CallExpr, via string, site func(token.Pos, string, ...any), isCold func(token.Pos) bool) {
	info := aw.pass.TypesInfo
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj := info.Uses[fun]; obj != nil {
			switch o := obj.(type) {
			case *types.Builtin:
				switch o.Name() {
				case "append":
					if !isShrinkingAppend(call) {
						site(call.Pos(), "append may grow (reallocate) the backing array")
					}
				case "make":
					site(call.Pos(), "make allocates")
				case "new":
					site(call.Pos(), "new allocates")
				}
			case *types.TypeName:
				aw.scanConversion(info, call, site)
			case *types.Func:
				aw.callee(fd, call, o, via, site, isCold)
			}
			// *types.Var: a call through a function value — per-kernel
			// datapath code, covered by the runtime AllocsPerRun gates.
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if _, isIface := types.Unalias(sel.Recv()).Underlying().(*types.Interface); isIface {
					if !interfaceContractMethods[fn.Name()] && !isCold(call.Pos()) &&
						!aw.pass.Waived(call.Pos(), HotallocWaiver) {
						aw.warnOnce(fd, fn, call.Pos(), via,
							"dynamic call %s through an interface: allocation behavior unprovable", fn.Name())
					}
					return
				}
				aw.callee(fd, call, fn, via, site, isCold)
			}
			return
		}
		// Qualified pkg.F call or conversion.
		if obj := info.Uses[fun.Sel]; obj != nil {
			switch o := obj.(type) {
			case *types.Func:
				aw.callee(fd, call, o, via, site, isCold)
			case *types.TypeName:
				aw.scanConversion(info, call, site)
			}
		}
	}
}

// scanConversion flags T(x) conversions that box into an interface.
func (aw *allocWalker) scanConversion(info *types.Info, call *ast.CallExpr, site func(token.Pos, string, ...any)) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	if !types.IsInterface(types.Unalias(tv.Type)) {
		return
	}
	if boxes(info, call.Args[0]) {
		site(call.Pos(), "conversion boxes a non-pointer value into an interface")
	}
}

// callee handles a resolved function callee: same-package bodies are walked,
// fmt/errors are allocation sites by definition, audited cross-package
// callees pass, everything else is a warning (the body is out of sight).
func (aw *allocWalker) callee(fd *ast.FuncDecl, call *ast.CallExpr, fn *types.Func, via string, site func(token.Pos, string, ...any), isCold func(token.Pos) bool) {
	pkg := fn.Pkg()
	if pkg != nil && pkg == aw.pass.Pkg {
		aw.visit(fn, via)
		return
	}
	if pkg == nil {
		return // error.Error and friends on universe types
	}
	path := pkg.Path()
	if path == "fmt" || path == "errors" {
		site(call.Pos(), "%s.%s formats into the heap", pkg.Name(), fn.Name())
		return
	}
	if allocFreePkgs[path] || knownAllocFree[calleeKey(fn)] {
		return
	}
	if isCold(call.Pos()) || aw.pass.Waived(call.Pos(), HotallocWaiver) {
		return
	}
	aw.warnOnce(fd, fn, call.Pos(), via,
		"call to %s outside the audited allocation-free set: body not visible from this package", calleeName(fn))
}

// warnOnce emits one warning-severity finding per (caller, callee) pair.
func (aw *allocWalker) warnOnce(fd *ast.FuncDecl, fn *types.Func, pos token.Pos, via, format string, args ...any) {
	key := [2]types.Object{aw.pass.TypesInfo.Defs[fd.Name], fn}
	if aw.warned[key] {
		return
	}
	aw.warned[key] = true
	args = append(args, fd.Name.Name, via)
	aw.pass.Warnf(pos, format+" in %s (hot path via %s)", args...)
}

// capturesOuter reports whether a function literal references a variable
// declared in the enclosing function but outside the literal — the capture
// that forces a heap-allocated closure cell.
func capturesOuter(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	inLit := func(p token.Pos) bool { return lit.Pos() <= p && p <= lit.End() }
	inDecl := func(p token.Pos) bool { return fd.Pos() <= p && p <= fd.End() }
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if inDecl(v.Pos()) && !inLit(v.Pos()) {
			captured = true
		}
		return true
	})
	return captured
}

// isShrinkingAppend recognizes the in-place delete idiom
// append(s[:i], s[i+k:]...) — both operands slice the same base expression
// and the source starts at or after the destination's end, so the result
// can never exceed the original length and the backing array is reused,
// not reallocated. Textual base equality is the aliasing proof; the bound
// comparison accepts an identical expression or i+<positive const>.
func isShrinkingAppend(call *ast.CallExpr) bool {
	if !call.Ellipsis.IsValid() || len(call.Args) != 2 {
		return false
	}
	dst, ok := call.Args[0].(*ast.SliceExpr)
	if !ok || dst.Slice3 || dst.Low != nil || dst.High == nil {
		return false
	}
	src, ok := call.Args[1].(*ast.SliceExpr)
	if !ok || src.Slice3 || src.Low == nil || src.High != nil {
		return false
	}
	if types.ExprString(dst.X) != types.ExprString(src.X) {
		return false
	}
	hi := types.ExprString(dst.High)
	if types.ExprString(src.Low) == hi {
		return true
	}
	if bin, ok := src.Low.(*ast.BinaryExpr); ok && bin.Op == token.ADD {
		if lit, ok := bin.Y.(*ast.BasicLit); ok && lit.Kind == token.INT &&
			types.ExprString(bin.X) == hi {
			return true
		}
	}
	// Constant bounds: append(s[:1], s[2:]...) shrinks when low >= high.
	if a, ok := intLit(dst.High); ok {
		if b, ok := intLit(src.Low); ok && b >= a {
			return true
		}
	}
	return false
}

func intLit(e ast.Expr) (int64, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return 0, false
	}
	n, err := strconv.ParseInt(lit.Value, 0, 64)
	return n, err == nil
}
