package vm

// Pre-decoded program form: the hot-path replacement for the reference
// interpreter's per-step work.
//
// The reference interpreter (vm.go step) re-does three kinds of work on
// every executed instruction: it double-derefs Blocks[block].Instrs[ip] to
// fetch the instruction, re-switches on the opcode, and — on every memory
// access — re-resolves the spin instrumentation (two nested map lookups in
// spin.Instrumentation.SpinReadLoop) and the interned symbol/location ids
// (two map lookups in ir.Interning). Decode does all of that exactly once
// per (program, instrumentation) pair: each function's blocks are
// flattened into one dense code array, jump targets become flat pcs,
// operands become pre-narrowed indices, the per-op behavior becomes a
// pre-bound exec function pointer from a per-op table, and the spin-read
// loop ids, spin-exit booleans, and interned Sym/Loc ids are baked into
// the instruction. The decoded step is then one slice index plus one
// indirect call, with zero map traffic.
//
// Event-stream equivalence with the reference interpreter is the bar —
// byte-identical reports under every tool and pipeline shape — and is
// asserted by decode_test.go and the detect equivalence suite.

import (
	"fmt"

	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/spin"
)

// Decoded is the dense executable form of a program under one
// instrumentation. It is immutable after Decode and safe to share across
// concurrent runs (package detect memoizes one per program and spin
// window on the program, ir.Program.Derived).
type Decoded struct {
	prog  *ir.Program
	ins   *spin.Instrumentation
	funcs []*dfunc
}

// Matches reports whether this decoded form was built from exactly the
// given program and instrumentation (pointer identity — both are treated
// as immutable once prepared).
func (d *Decoded) Matches(p *ir.Program, ins *spin.Instrumentation) bool {
	return d != nil && d.prog == p && d.ins == ins
}

// dfunc is one decoded function: its blocks concatenated into a flat code
// array (block b starts at entry[b]; block 0, the entry block, at pc 0).
type dfunc struct {
	fn   *ir.Func
	code []dinstr
}

// dinstr is one decoded instruction. Everything the exec function needs is
// resolved at decode time; nothing in here is looked up per step.
type dinstr struct {
	// exec runs the instruction; bound from execTab at decode time.
	exec func(v *VM, t *thread, f *frame, in *dinstr) (bool, error)
	// dst/a/b/c are the register operands (NoReg stays -1).
	dst, a, b, c int32
	// next is the flat pc after this instruction (fallthrough); t1/t2 are
	// resolved branch targets (Jmp uses t1, Br uses t1 for the then block
	// and t2 for the else block).
	next, t1, t2 int32
	imm          int64
	// sym/loc are the interned symbol and location the emitted event
	// carries (already resolved through the program's ir.Interning).
	sym ir.SymID
	loc ir.LocID
	// spin is the instrumented spin-read loop id + 1 for condition-load
	// sites (0 = not a condition load) — the per-load nested map lookup of
	// the reference path, baked.
	spin int32
	// spinExit is the instrumented loop id + 1 when this Br is one of the
	// loop's exit branches; exitT1/exitT2 say whether taking the then/else
	// target leaves the loop (the LoopContains lookup, baked per target).
	spinExit       int32
	exitT1, exitT2 bool
	// callee is the static call/spawn target.
	callee *ir.Func
	// args are the caller registers feeding the callee's parameters.
	args []int32
	op   ir.Op
}

// Decode builds the dense executable form of p under ins (nil ins means no
// spin marks). The result is immutable and reusable across runs; VM.New
// decodes on demand when no pre-built form is supplied.
func Decode(p *ir.Program, ins *spin.Instrumentation) *Decoded {
	tab := p.Interning()
	d := &Decoded{prog: p, ins: ins, funcs: make([]*dfunc, len(p.Funcs))}
	for fi, fn := range p.Funcs {
		df := &dfunc{fn: fn}
		starts := make([]int32, len(fn.Blocks))
		total := 0
		for bi, b := range fn.Blocks {
			starts[bi] = int32(total)
			total += len(b.Instrs)
		}
		df.code = make([]dinstr, 0, total)
		for bi, b := range fn.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				di := dinstr{
					op:   in.Op,
					dst:  int32(in.Dst),
					a:    int32(in.A),
					b:    int32(in.B),
					c:    int32(in.C),
					imm:  in.Imm,
					next: int32(len(df.code)) + 1,
					sym:  tab.SymOf(in.Sym),
					loc:  tab.LocOf(in.Loc),
				}
				if int(in.Op) < len(execTab) {
					di.exec = execTab[in.Op]
				}
				if di.exec == nil {
					di.exec = execUnknown
				}
				switch in.Op {
				case ir.OpLoad, ir.OpAtomicLoad, ir.OpAtomicCAS, ir.OpAtomicAdd:
					if ins != nil {
						if id := ins.SpinReadLoop(fn.Index, bi, ii); id >= 0 {
							di.spin = int32(id) + 1
						}
					}
				case ir.OpJmp:
					di.t1 = starts[in.Imm]
				case ir.OpBr:
					di.t1 = starts[in.Imm]
					di.t2 = starts[in.Imm2]
					if ins != nil {
						if id := ins.ExitBranchLoop(fn.Index, bi); id >= 0 {
							di.spinExit = int32(id) + 1
							di.exitT1 = !ins.LoopContains(id, int(in.Imm))
							di.exitT2 = !ins.LoopContains(id, int(in.Imm2))
						}
					}
				case ir.OpCall, ir.OpSpawn:
					di.callee = p.Funcs[in.Imm]
					di.args = decodeArgs(in.Args)
				case ir.OpCallIndirect:
					di.args = decodeArgs(in.Args)
				}
				df.code = append(df.code, di)
			}
		}
		d.funcs[fi] = df
	}
	return d
}

func decodeArgs(args []int) []int32 {
	if len(args) == 0 {
		return nil
	}
	out := make([]int32, len(args))
	for i, r := range args {
		out[i] = int32(r)
	}
	return out
}

// execTab maps each opcode to its exec function — the "decode the switch
// once" table. Indexed by ir.Op at decode time, never at run time.
var execTab = [...]func(*VM, *thread, *frame, *dinstr) (bool, error){
	ir.OpNop:          execNop,
	ir.OpYield:        execYield,
	ir.OpConst:        execConst,
	ir.OpMov:          execMov,
	ir.OpAdd:          execAdd,
	ir.OpSub:          execSub,
	ir.OpMul:          execMul,
	ir.OpDiv:          execDiv,
	ir.OpMod:          execMod,
	ir.OpAnd:          execAnd,
	ir.OpOr:           execOr,
	ir.OpXor:          execXor,
	ir.OpShl:          execShl,
	ir.OpShr:          execShr,
	ir.OpCmpEQ:        execCmpEQ,
	ir.OpCmpNE:        execCmpNE,
	ir.OpCmpLT:        execCmpLT,
	ir.OpCmpLE:        execCmpLE,
	ir.OpCmpGT:        execCmpGT,
	ir.OpCmpGE:        execCmpGE,
	ir.OpNot:          execNot,
	ir.OpLoad:         execLoad,
	ir.OpStore:        execStore,
	ir.OpAtomicLoad:   execAtomicLoad,
	ir.OpAtomicStore:  execAtomicStore,
	ir.OpAtomicCAS:    execAtomicCAS,
	ir.OpAtomicAdd:    execAtomicAdd,
	ir.OpJmp:          execJmp,
	ir.OpBr:           execBr,
	ir.OpRet:          execRet,
	ir.OpCall:         execCall,
	ir.OpCallIndirect: execCallIndirect,
	ir.OpSpawn:        execSpawn,
	ir.OpJoin:         execJoin,
}

// runThreadDecoded is runThread's decoded-mode twin: fetch the frame's
// current flat instruction and tail into its pre-bound exec function. The
// frame is re-fetched per step because calls and returns change the stack.
func (v *VM) runThreadDecoded(t *thread, quantum int) error {
	for i := 0; i < quantum; i++ {
		if t.state != stateRunnable {
			return nil
		}
		v.steps++
		if v.steps > v.opts.MaxSteps {
			return ErrStepLimit
		}
		f := t.frames[len(t.frames)-1]
		in := &f.dfn.code[f.ip]
		yielded, err := in.exec(v, t, f, in)
		if err != nil {
			return err
		}
		if yielded {
			return nil
		}
	}
	return nil
}

func execNop(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.ip = int(in.next)
	return false, nil
}

func execYield(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.ip = int(in.next)
	return true, nil
}

func execConst(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = in.imm
	f.ip = int(in.next)
	return false, nil
}

func execMov(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a]
	f.ip = int(in.next)
	return false, nil
}

func execAdd(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a] + f.regs[in.b]
	f.ip = int(in.next)
	return false, nil
}

func execSub(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a] - f.regs[in.b]
	f.ip = int(in.next)
	return false, nil
}

func execMul(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a] * f.regs[in.b]
	f.ip = int(in.next)
	return false, nil
}

func execDiv(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	if f.regs[in.b] == 0 {
		f.regs[in.dst] = 0
	} else {
		f.regs[in.dst] = f.regs[in.a] / f.regs[in.b]
	}
	f.ip = int(in.next)
	return false, nil
}

func execMod(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	if f.regs[in.b] == 0 {
		f.regs[in.dst] = 0
	} else {
		f.regs[in.dst] = f.regs[in.a] % f.regs[in.b]
	}
	f.ip = int(in.next)
	return false, nil
}

func execAnd(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a] & f.regs[in.b]
	f.ip = int(in.next)
	return false, nil
}

func execOr(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a] | f.regs[in.b]
	f.ip = int(in.next)
	return false, nil
}

func execXor(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a] ^ f.regs[in.b]
	f.ip = int(in.next)
	return false, nil
}

func execShl(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = f.regs[in.a] << (uint64(f.regs[in.b]) & 63)
	f.ip = int(in.next)
	return false, nil
}

func execShr(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = int64(uint64(f.regs[in.a]) >> (uint64(f.regs[in.b]) & 63))
	f.ip = int(in.next)
	return false, nil
}

func execCmpEQ(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = b2i(f.regs[in.a] == f.regs[in.b])
	f.ip = int(in.next)
	return false, nil
}

func execCmpNE(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = b2i(f.regs[in.a] != f.regs[in.b])
	f.ip = int(in.next)
	return false, nil
}

func execCmpLT(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = b2i(f.regs[in.a] < f.regs[in.b])
	f.ip = int(in.next)
	return false, nil
}

func execCmpLE(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = b2i(f.regs[in.a] <= f.regs[in.b])
	f.ip = int(in.next)
	return false, nil
}

func execCmpGT(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = b2i(f.regs[in.a] > f.regs[in.b])
	f.ip = int(in.next)
	return false, nil
}

func execCmpGE(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = b2i(f.regs[in.a] >= f.regs[in.b])
	f.ip = int(in.next)
	return false, nil
}

func execNot(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.regs[in.dst] = b2i(f.regs[in.a] == 0)
	f.ip = int(in.next)
	return false, nil
}

func execLoad(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	addr := f.regs[in.a]
	val, err := v.load(addr)
	if err != nil {
		return false, err
	}
	f.regs[in.dst] = val
	// The spin-read mark precedes the access event so detectors classify
	// the address before race-checking the access (same order as the
	// reference interpreter).
	if in.spin != 0 {
		v.emitSpin(t, event.KindSpinRead, in.spin-1, addr, val, in.loc)
	}
	v.emitAccess(t, event.KindRead, addr, val, in.sym, in.loc)
	f.ip = int(in.next)
	return false, nil
}

func execAtomicLoad(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	addr := f.regs[in.a]
	val, err := v.load(addr)
	if err != nil {
		return false, err
	}
	f.regs[in.dst] = val
	if in.spin != 0 {
		v.emitSpin(t, event.KindSpinRead, in.spin-1, addr, val, in.loc)
	}
	v.emitAccess(t, event.KindAtomicRead, addr, val, in.sym, in.loc)
	f.ip = int(in.next)
	return false, nil
}

func execStore(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	addr := f.regs[in.a]
	val := f.regs[in.b]
	if err := v.store(addr, val); err != nil {
		return false, err
	}
	v.emitAccess(t, event.KindWrite, addr, val, in.sym, in.loc)
	f.ip = int(in.next)
	return false, nil
}

func execAtomicStore(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	addr := f.regs[in.a]
	val := f.regs[in.b]
	if err := v.store(addr, val); err != nil {
		return false, err
	}
	v.emitAccess(t, event.KindAtomicWrite, addr, val, in.sym, in.loc)
	f.ip = int(in.next)
	return false, nil
}

func execAtomicCAS(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	addr := f.regs[in.a]
	old, err := v.load(addr)
	if err != nil {
		return false, err
	}
	if in.spin != 0 {
		v.emitSpin(t, event.KindSpinRead, in.spin-1, addr, old, in.loc)
	}
	v.emitAccess(t, event.KindAtomicRead, addr, old, in.sym, in.loc)
	if old == f.regs[in.b] {
		if err := v.store(addr, f.regs[in.c]); err != nil {
			return false, err
		}
		v.emitRMWWrite(t, addr, f.regs[in.c], in.sym, in.loc)
		f.regs[in.dst] = 1
	} else {
		f.regs[in.dst] = 0
	}
	f.ip = int(in.next)
	return false, nil
}

func execAtomicAdd(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	addr := f.regs[in.a]
	old, err := v.load(addr)
	if err != nil {
		return false, err
	}
	if in.spin != 0 {
		v.emitSpin(t, event.KindSpinRead, in.spin-1, addr, old, in.loc)
	}
	v.emitAccess(t, event.KindAtomicRead, addr, old, in.sym, in.loc)
	if err := v.store(addr, old+f.regs[in.b]); err != nil {
		return false, err
	}
	v.emitRMWWrite(t, addr, old+f.regs[in.b], in.sym, in.loc)
	f.regs[in.dst] = old
	f.ip = int(in.next)
	return false, nil
}

func execJmp(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	f.ip = int(in.t1)
	return false, nil
}

func execBr(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	if f.regs[in.a] != 0 {
		if in.exitT1 {
			v.emitSpin(t, event.KindSpinExit, in.spinExit-1, 0, 0, ir.NoLoc)
		}
		f.ip = int(in.t1)
	} else {
		if in.exitT2 {
			v.emitSpin(t, event.KindSpinExit, in.spinExit-1, 0, 0, ir.NoLoc)
		}
		f.ip = int(in.t2)
	}
	return false, nil
}

func execRet(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	var val int64
	if in.a != ir.NoReg {
		val = f.regs[in.a]
	}
	return v.returnFrom(t, val)
}

func execCall(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	callee := in.callee
	nf := v.newFrame(callee, int(in.dst))
	for i, r := range in.args {
		nf.regs[i] = f.regs[r]
	}
	f.ip = int(in.next) // resume after the call upon return
	v.pushCall(t, nf, callee, in.loc)
	return false, nil
}

func execCallIndirect(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	fi := f.regs[in.a]
	if fi < 0 || int(fi) >= len(v.prog.Funcs) {
		return false, fmt.Errorf("vm: indirect call to invalid function %d", fi)
	}
	callee := v.prog.Funcs[fi]
	if len(in.args) != callee.NParams {
		return false, fmt.Errorf("vm: indirect call to %q: want %d args, got %d",
			callee.Name, callee.NParams, len(in.args))
	}
	nf := v.newFrame(callee, int(in.dst))
	for i, r := range in.args {
		nf.regs[i] = f.regs[r]
	}
	f.ip = int(in.next)
	v.pushCall(t, nf, callee, in.loc)
	return false, nil
}

func execSpawn(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	v.argScratch = v.argScratch[:0]
	for _, r := range in.args {
		v.argScratch = append(v.argScratch, f.regs[r])
	}
	child := v.spawnThread(in.callee, v.argScratch)
	if in.dst != ir.NoReg {
		f.regs[in.dst] = int64(child)
	}
	v.emitThread(event.KindSpawn, t.id, child)
	v.emitThread(event.KindThreadStart, child, 0)
	f.ip = int(in.next)
	return false, nil
}

func execJoin(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	target := event.Tid(f.regs[in.a])
	if target < 0 || int(target) >= len(v.threads) {
		return false, fmt.Errorf("vm: join on invalid thread %d", target)
	}
	if v.threads[target].state != stateDone {
		t.state = stateBlockedJoin
		t.joinWait = target
		v.removeRunnable(t.id)
		// Do not advance: re-execute the join when woken so the event
		// fires after the child is really done.
		return true, nil
	}
	v.emitThread(event.KindJoin, t.id, target)
	f.ip = int(in.next)
	return false, nil
}

func execUnknown(v *VM, t *thread, f *frame, in *dinstr) (bool, error) {
	return false, fmt.Errorf("vm: unknown opcode %v", in.op)
}
