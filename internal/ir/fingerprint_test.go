package ir

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"nascent/internal/source"
)

// fingerprintExcluded names every field Fingerprint deliberately leaves
// out, with the reason. Every other field reachable from Program must
// change the fingerprint when it changes; TestFingerprintCoversEveryField
// enforces that, so a new IR field fails the test until it is either
// hashed or listed here.
var fingerprintExcluded = map[string]string{
	"Program.funcByName": "derived: the name index over Funcs, rebuilt by RegisterFunc",
	"Func.Program":       "back-pointer to the enclosing program",
	"Func.nextBlockID":   "allocator state for NewBlock; no engine reads it",
	"Func.origin":        "restore source of a Fork; a fork must hash like a fresh lowering",
	"Block.Func":         "back-pointer to the enclosing function",
	"Block.Preds":        "derived from the terminators by RecomputePreds",
}

// fpFixture is a small program that holds at least one instance of every
// IR node type, with every slice field non-empty somewhere.
type fpFixture struct {
	prog  *Program
	check *CheckStmt
	arr   *Array
	cond  *If
	exit  *Block
	loop  *DoLoopInfo
}

func newFPFixture() fpFixture {
	p := &Program{}
	main := &Func{Name: "main", IsMain: true}
	p.RegisterFunc(main)
	sub := &Func{Name: "sub"}
	p.RegisterFunc(sub)

	g := p.NewVar("g", Int, true, false)
	ga := p.NewArray("ga", Float, []Bounds{{1, 10}, {0, 4}}, true)
	i := main.NewLocal("i", Int)
	x := main.NewLocal("x", Float)
	tmp := main.NewTemp("t1", Int)
	la := p.NewArray("la", Float, []Bounds{{1, 5}}, false)
	main.Arrays = append(main.Arrays, la)
	y := sub.NewLocal("y", Float)
	sub.Params = append(sub.Params, y)

	pre, hdr, body, latch, exit := main.NewBlock("entry"), main.NewBlock("header"),
		main.NewBlock("body"), main.NewBlock("latch"), main.NewBlock("exit")
	vi := func() Expr { return &VarRef{Var: i} }
	pre.Stmts = []Stmt{
		&AssignStmt{Dst: i, Src: &ConstInt{V: 1}, SrcPos: source.Pos{Line: 2, Col: 3}},
		&AssignStmt{Dst: tmp, Src: &ConstInt{V: 5}},
	}
	pre.Term = &Goto{Target: hdr}
	cond := &If{Cond: &Bin{Op: OpLe, L: vi(), R: &VarRef{Var: tmp}, Typ: Bool}, Then: body, Else: exit}
	hdr.Term = cond
	check := &CheckStmt{
		Terms:  []CheckTerm{{Coef: 1, Atom: vi()}},
		Const:  5,
		Guard:  &Bin{Op: OpGe, L: &VarRef{Var: g}, R: &ConstInt{V: 0}, Typ: Bool},
		Note:   "la(i) dim 1 upper",
		SrcPos: source.Pos{Line: 4, Col: 5},
	}
	body.Stmts = []Stmt{
		check,
		&StoreStmt{Arr: la, Idx: []Expr{vi()}, Val: &Call{Fn: IntrFloat, Args: []Expr{vi()}, Typ: Float}, SrcPos: source.Pos{Line: 4, Col: 3}},
		&AssignStmt{Dst: x, Src: &Load{Arr: ga, Idx: []Expr{vi(), &Un{Op: OpNeg, X: &VarRef{Var: g}, Typ: Int}}}},
		&CallStmt{Callee: sub, Args: []Expr{&VarRef{Var: x}}, SrcPos: source.Pos{Line: 6, Col: 3}},
		&PrintStmt{Args: []Expr{&VarRef{Var: x}, &ConstFloat{V: 1.5}}, SrcPos: source.Pos{Line: 7, Col: 3}},
	}
	body.Term = &Goto{Target: latch}
	latch.Stmts = []Stmt{&AssignStmt{Dst: i, Src: &Bin{Op: OpAdd, L: vi(), R: &ConstInt{V: 1}, Typ: Int}}}
	latch.Term = &Goto{Target: hdr}
	exit.Stmts = []Stmt{&TrapStmt{Note: "unreachable", SrcPos: source.Pos{Line: 9, Col: 1}}}
	exit.Term = &Ret{}
	loop := &DoLoopInfo{Preheader: pre, Header: hdr, BodyEntry: body, Latch: latch,
		Var: i, Lo: &ConstInt{V: 1}, Limit: &VarRef{Var: tmp}, Step: 1}
	main.DoLoops = []*DoLoopInfo{loop}
	main.RecomputePreds()

	sb := sub.NewBlock("entry")
	sb.Stmts = []Stmt{&PrintStmt{Args: []Expr{&VarRef{Var: y}}}}
	sb.Term = &Ret{}
	sub.RecomputePreds()
	return fpFixture{prog: p, check: check, arr: ga, cond: cond, exit: exit, loop: loop}
}

// TestFingerprintFieldChanges checks that separately built identical
// programs share a fingerprint — what lets one run stand in for another
// configuration's — then changes one observable field at a time and
// requires a new fingerprint each time.
func TestFingerprintFieldChanges(t *testing.T) {
	base := newFPFixture().prog.Fingerprint()
	if newFPFixture().prog.Fingerprint() != base {
		t.Fatal("identical programs have different fingerprints")
	}
	for name, mutate := range map[string]func(fpFixture){
		"check Const":      func(f fpFixture) { f.check.Const++ },
		"check Coef":       func(f fpFixture) { f.check.Terms[0].Coef = 2 },
		"check Note":       func(f fpFixture) { f.check.Note += "!" },
		"check SrcPos":     func(f fpFixture) { f.check.SrcPos.Col++ },
		"dim bound":        func(f fpFixture) { f.arr.Dims[1].Hi++ },
		"branch target":    func(f fpFixture) { f.cond.Else = f.loop.Latch },
		"DoLoops.Step":     func(f fpFixture) { f.loop.Step = 2 },
		"DoLoops.Header":   func(f fpFixture) { f.loop.Header = f.exit },
		"trap note":        func(f fpFixture) { f.exit.Stmts[0].(*TrapStmt).Note = "x" },
		"const float bits": func(f fpFixture) { f.check.Guard.(*Bin).R = &ConstFloat{V: 0} },
	} {
		f := newFPFixture()
		mutate(f)
		if f.prog.Fingerprint() == base {
			t.Errorf("changing the %s left the fingerprint unchanged", name)
		}
	}
}

// TestFingerprintCoversEveryField walks every struct type reachable from
// Program. Each field must either change the fingerprint when it
// changes, or sit on fingerprintExcluded with a reason.
func TestFingerprintCoversEveryField(t *testing.T) {
	fx := newFPFixture()
	w := newFPWalker()
	w.collect(reflect.ValueOf(fx.prog))

	// Every node type of the package must occur in the fixture, so the
	// walk below reaches it.
	for _, name := range nodeTypeNames(t) {
		if !w.concrete[name] {
			t.Errorf("fixture holds no *%s: add one so its fields are checked", name)
		}
	}
	for key := range fingerprintExcluded {
		typ, field, _ := strings.Cut(key, ".")
		if !w.hasField(typ, field) {
			t.Errorf("stale exclusion %q: no such field", key)
		}
	}

	base := fx.prog.Fingerprint()
	for _, st := range w.reachableStructs(reflect.TypeOf(Program{})) {
		for fi := 0; fi < st.NumField(); fi++ {
			sf := st.Field(fi)
			key := st.Name() + "." + sf.Name
			if _, ok := fingerprintExcluded[key]; ok {
				continue
			}
			if len(w.instances[st]) == 0 {
				t.Errorf("%s: fixture has no instance", key)
				continue
			}
			if !w.fieldHashed(fx.prog, base, st, fi) {
				t.Errorf("field %s is neither hashed by Fingerprint nor on fingerprintExcluded", key)
			}
		}
	}
}

// nodeTypeNames parses the package and returns every type with a
// stmtNode, exprNode or termNode method: the implementations of Stmt,
// Expr and Terminator.
func nodeTypeNames(t *testing.T) []string {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			switch fd.Name.Name {
			case "stmtNode", "exprNode", "termNode":
			default:
				continue
			}
			if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok {
					names = append(names, id.Name)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("found no IR node types")
	}
	return names
}

// fpWalker collects, from a live program, every struct instance by type
// and every pointer by type (the candidates a pointer or interface field
// may be re-pointed to).
type fpWalker struct {
	instances map[reflect.Type][]reflect.Value
	pointers  map[reflect.Type][]reflect.Value
	concrete  map[string]bool // named types seen behind an interface
	seen      map[any]bool
}

func newFPWalker() *fpWalker {
	return &fpWalker{
		instances: map[reflect.Type][]reflect.Value{},
		pointers:  map[reflect.Type][]reflect.Value{},
		concrete:  map[string]bool{},
		seen:      map[any]bool{},
	}
}

// settable returns v made settable even when it is an unexported field.
func settable(v reflect.Value) reflect.Value {
	if v.CanSet() {
		return v
	}
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

func (w *fpWalker) collect(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		k := [2]any{v.Type(), v.Pointer()}
		if w.seen[k] {
			return
		}
		w.seen[k] = true
		w.pointers[v.Type()] = append(w.pointers[v.Type()], v)
		w.collect(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		e := v.Elem()
		w.concrete[e.Type().Elem().Name()] = true
		w.collect(e)
	case reflect.Struct:
		w.instances[v.Type()] = append(w.instances[v.Type()], v)
		for i := 0; i < v.NumField(); i++ {
			if _, ok := fingerprintExcluded[v.Type().Name()+"."+v.Type().Field(i).Name]; ok {
				continue
			}
			w.collect(settable(v.Field(i)))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			w.collect(v.Index(i))
		}
	case reflect.Map:
		panic("fingerprint walk reached a map outside the exclusion list")
	}
}

// reachableStructs returns every struct type reachable from root through
// fields, pointers, slices, maps and interfaces; an interface leads to
// every pointer type the walk collected that implements it.
func (w *fpWalker) reachableStructs(root reflect.Type) []reflect.Type {
	seen := map[reflect.Type]bool{}
	var out []reflect.Type
	var visit func(reflect.Type)
	visit = func(t reflect.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			visit(t.Elem())
		case reflect.Map:
			visit(t.Key())
			visit(t.Elem())
		case reflect.Interface:
			for pt := range w.pointers {
				if pt.Implements(t) {
					visit(pt)
				}
			}
		case reflect.Struct:
			out = append(out, t)
			for i := 0; i < t.NumField(); i++ {
				visit(t.Field(i).Type)
			}
		}
	}
	visit(root)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func (w *fpWalker) hasField(typ, field string) bool {
	for t := range w.instances {
		if t.Name() == typ {
			_, ok := t.FieldByName(field)
			return ok
		}
	}
	return false
}

// mutations returns ways to change v in place; each returns its undo.
func (w *fpWalker) mutations(v reflect.Value) []func() func() {
	set := func(nv reflect.Value) func() func() {
		return func() func() {
			old := reflect.New(v.Type()).Elem()
			old.Set(v)
			v.Set(nv)
			return func() { v.Set(old) }
		}
	}
	var muts []func() func()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		nv := reflect.New(v.Type()).Elem()
		nv.SetInt(v.Int() + 1)
		muts = append(muts, set(nv))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		nv := reflect.New(v.Type()).Elem()
		nv.SetUint(v.Uint() + 1)
		muts = append(muts, set(nv))
	case reflect.Float32, reflect.Float64:
		nv := reflect.New(v.Type()).Elem()
		nv.SetFloat(v.Float() + 1)
		muts = append(muts, set(nv))
	case reflect.Bool:
		muts = append(muts, set(reflect.ValueOf(!v.Bool()).Convert(v.Type())))
	case reflect.String:
		muts = append(muts, set(reflect.ValueOf(v.String()+"'").Convert(v.Type())))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if _, ok := fingerprintExcluded[v.Type().Name()+"."+v.Type().Field(i).Name]; !ok {
				muts = append(muts, w.mutations(settable(v.Field(i)))...)
			}
		}
	case reflect.Slice:
		if v.Len() > 0 {
			muts = append(muts, set(v.Slice(0, v.Len()-1)))
		}
	case reflect.Pointer:
		muts = append(muts, set(reflect.Zero(v.Type())))
		for _, p := range w.pointers[v.Type()] {
			muts = append(muts, set(p))
		}
	case reflect.Interface:
		muts = append(muts, set(reflect.Zero(v.Type())))
		for pt, ps := range w.pointers {
			if pt.Implements(v.Type()) {
				for _, p := range ps {
					muts = append(muts, set(p))
				}
			}
		}
	}
	return muts
}

// fieldHashed reports whether some change to field fi of some instance
// of st changes prog's fingerprint.
func (w *fpWalker) fieldHashed(prog *Program, base [32]byte, st reflect.Type, fi int) bool {
	for _, inst := range w.instances[st] {
		for _, mut := range w.mutations(settable(inst.Field(fi))) {
			undo := mut()
			changed := prog.Fingerprint() != base
			undo()
			if changed {
				return true
			}
		}
	}
	return false
}

// TestFingerprintNumbersByIdentity checks that numbering Vars by ID
// through a slice keeps identity semantics: a second Var that reuses an
// ID, or a Var whose ID lies outside the program's range, is still a
// distinct Var, and its fingerprint differs from the one where a single
// Var is referenced twice.
func TestFingerprintNumbersByIdentity(t *testing.T) {
	build := func(second func(p *Program, i *Var) *Var) [32]byte {
		fx := newFPFixture()
		main := fx.prog.Main()
		i := main.Locals[0]
		v := second(fx.prog, i)
		b := main.Blocks[0]
		b.Stmts = append(b.Stmts, &AssignStmt{Dst: v, Src: &VarRef{Var: i}})
		return fx.prog.Fingerprint()
	}
	same := build(func(_ *Program, i *Var) *Var { return i })
	for name, second := range map[string]func(p *Program, i *Var) *Var{
		"shared ID":   func(_ *Program, i *Var) *Var { c := *i; return &c },
		"ID past end": func(p *Program, i *Var) *Var { c := *i; c.ID = p.NumVars + 7; return &c },
		"negative ID": func(_ *Program, i *Var) *Var { c := *i; c.ID = -3; return &c },
	} {
		got := build(second)
		if got == same {
			t.Errorf("%s: a distinct Var fingerprints like the same Var", name)
		}
		if again := build(second); again != got {
			t.Errorf("%s: fingerprint is not deterministic", name)
		}
	}
}
