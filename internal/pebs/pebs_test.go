package pebs

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
)

func testProgram() *isa.Program {
	b := isa.NewBuilder().At("w.c", 1)
	b.Func("main")
	for i := 0; i < 50; i++ {
		b.Load(1, 0, 0, 8)
		b.Store(0, 0, 1, 8)
		b.AddI(1, 1, 1)
	}
	b.Halt()
	return b.Build()
}

type collectSink struct {
	batches [][]Record
	cost    uint64
}

func (s *collectSink) Overflow(core int, recs []Record) uint64 {
	cp := append([]Record(nil), recs...)
	s.batches = append(s.batches, cp)
	return s.cost
}

func (s *collectSink) all() []Record {
	var out []Record
	for _, b := range s.batches {
		out = append(out, b...)
	}
	return out
}

func event(p *isa.Program, idx int, load bool) machine.HITMEvent {
	return machine.HITMEvent{
		Core:   0,
		PC:     p.Instrs[idx].PC,
		Addr:   mem.HeapBase + 0x40,
		IsLoad: load,
		Size:   8,
		Now:    1000,
	}
}

func newUnit(cfg Config, sink Sink) (*Unit, *isa.Program) {
	p := testProgram()
	vm := mem.StandardMap(p.AppTextSize(), p.LibTextSize(), 1<<20, 4)
	return New(cfg, 4, p, vm, sink), p
}

func TestSamplingRate(t *testing.T) {
	sink := &collectSink{}
	cfg := DefaultConfig()
	cfg.SAV = 19
	u, p := newUnit(cfg, sink)
	const events = 19 * 100
	for i := 0; i < events; i++ {
		u.OnHITM(event(p, 0, true))
	}
	u.Drain()
	if got := len(sink.all()); got != 100 {
		t.Errorf("records = %d, want 100 (SAV=19)", got)
	}
	st := u.Stats()
	if st.Events != events || st.Records != 100 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSAV1RecordsEveryEvent(t *testing.T) {
	sink := &collectSink{}
	cfg := DefaultConfig()
	cfg.SAV = 1
	u, p := newUnit(cfg, sink)
	for i := 0; i < 500; i++ {
		u.OnHITM(event(p, 0, true))
	}
	u.Drain()
	if got := len(sink.all()); got != 500 {
		t.Errorf("records = %d, want 500", got)
	}
}

func TestBufferOverflowInterrupts(t *testing.T) {
	sink := &collectSink{cost: 123}
	cfg := DefaultConfig()
	cfg.SAV = 1
	cfg.BufferCap = 10
	u, p := newUnit(cfg, sink)
	var charged uint64
	for i := 0; i < 35; i++ {
		charged += u.OnHITM(event(p, 0, true))
	}
	if got := len(sink.batches); got != 3 {
		t.Errorf("interrupts = %d, want 3", got)
	}
	for _, b := range sink.batches {
		if len(b) != 10 {
			t.Errorf("batch size = %d, want 10", len(b))
		}
	}
	// Assist cost per record plus sink cost per interrupt.
	want := uint64(35)*cfg.AssistCycles + 3*123
	if charged != want {
		t.Errorf("charged = %d, want %d", charged, want)
	}
	u.Drain()
	if got := len(sink.all()); got != 35 {
		t.Errorf("after drain, records = %d, want 35", got)
	}
}

func TestContextSwitchReconfigCost(t *testing.T) {
	u, _ := newUnit(DefaultConfig(), &collectSink{})
	got := u.OnContextSwitch(0, 1, 2, 99)
	if got != DefaultConfig().ReconfigCycles {
		t.Errorf("reconfig cost = %d", got)
	}
	if u.Stats().Reconfigs != 1 {
		t.Error("reconfig not counted")
	}
}

// TestLoadImprecisionDistribution checks the Figure 3 statistics for
// load-triggered (read-write) records: ~75 % correct data addresses,
// ~40 % exact PCs, ~75 % exact-or-adjacent PCs.
func TestLoadImprecisionDistribution(t *testing.T) {
	sink := &collectSink{}
	cfg := DefaultConfig()
	cfg.SAV = 1
	cfg.BufferCap = 1 << 20
	u, p := newUnit(cfg, sink)
	const n = 20000
	truePC := p.Instrs[3].PC // a load instruction
	trueAddr := mem.Addr(mem.HeapBase + 0x40)
	for i := 0; i < n; i++ {
		ev := event(p, 3, true)
		u.OnHITM(ev)
	}
	u.Drain()
	recs := sink.all()
	var addrOK, pcExact, pcAdj int
	for _, r := range recs {
		if r.Addr == trueAddr {
			addrOK++
		}
		if r.PC == truePC {
			pcExact++
		}
		if r.PC == truePC || r.PC == truePC+mem.InstrBytes {
			pcAdj++
		}
	}
	check := func(name string, got int, wantFrac, tol float64) {
		f := float64(got) / float64(n)
		if f < wantFrac-tol || f > wantFrac+tol {
			t.Errorf("%s fraction = %.3f, want %.2f±%.2f", name, f, wantFrac, tol)
		}
	}
	check("addr correct", addrOK, 0.75, 0.03)
	check("pc exact", pcExact, 0.41, 0.03)
	check("pc adjacent", pcAdj, 0.75, 0.03)
}

// TestStoreImprecisionDistribution checks the write-write statistics:
// data addresses and PCs are highly inaccurate, ~34 % adjacent PCs.
func TestStoreImprecisionDistribution(t *testing.T) {
	sink := &collectSink{}
	cfg := DefaultConfig()
	cfg.SAV = 1
	cfg.BufferCap = 1 << 20
	u, p := newUnit(cfg, sink)
	const n = 20000
	truePC := p.Instrs[4].PC // a store instruction
	trueAddr := mem.Addr(mem.HeapBase + 0x40)
	for i := 0; i < n; i++ {
		ev := event(p, 4, false)
		u.OnHITM(ev)
	}
	u.Drain()
	var addrOK, pcAdj int
	for _, r := range sink.all() {
		if r.Addr == trueAddr {
			addrOK++
		}
		if r.PC == truePC || r.PC == truePC+mem.InstrBytes {
			pcAdj++
		}
	}
	if f := float64(addrOK) / n; f > 0.12 {
		t.Errorf("store addr correct fraction = %.3f, want < 0.12", f)
	}
	if f := float64(pcAdj) / n; f < 0.28 || f > 0.40 {
		t.Errorf("store pc adjacent fraction = %.3f, want ~0.34", f)
	}
}

// TestWrongFieldsDistribution checks where the garbage goes: wrong PCs are
// >99 % inside the binary; wrong addresses are ~95 % unmapped.
func TestWrongFieldsDistribution(t *testing.T) {
	sink := &collectSink{}
	cfg := DefaultConfig()
	cfg.SAV = 1
	cfg.BufferCap = 1 << 20
	u, p := newUnit(cfg, sink)
	vm := mem.StandardMap(p.AppTextSize(), p.LibTextSize(), 1<<20, 4)
	const n = 30000
	truePC := p.Instrs[4].PC
	trueAddr := mem.Addr(mem.HeapBase + 0x40)
	for i := 0; i < n; i++ {
		u.OnHITM(event(p, 4, false)) // stores: mostly wrong fields
	}
	u.Drain()
	var wrongPC, wrongPCInBinary, wrongAddr, wrongAddrUnmapped, wrongAddrStack int
	for _, r := range sink.all() {
		if r.PC != truePC && r.PC != truePC+mem.InstrBytes {
			wrongPC++
			if _, ok := p.IndexOf(r.PC); ok {
				wrongPCInBinary++
			}
		}
		if r.Addr != trueAddr {
			wrongAddr++
			if _, mapped := vm.Classify(r.Addr); !mapped {
				wrongAddrUnmapped++
			} else if vm.IsStack(r.Addr) {
				wrongAddrStack++
			}
		}
	}
	if f := float64(wrongPCInBinary) / float64(wrongPC); f < 0.98 {
		t.Errorf("wrong PCs in binary = %.3f, want > 0.98", f)
	}
	if f := float64(wrongAddrUnmapped) / float64(wrongAddr); f < 0.92 || f > 0.98 {
		t.Errorf("wrong addrs unmapped = %.3f, want ~0.95", f)
	}
	if wrongAddrStack == 0 {
		t.Error("no wrong addresses fell on stacks")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	mk := func() []Record {
		sink := &collectSink{}
		cfg := DefaultConfig()
		cfg.SAV = 1
		u, p := newUnit(cfg, sink)
		for i := 0; i < 200; i++ {
			u.OnHITM(event(p, 3, i%2 == 0))
		}
		u.Drain()
		return sink.all()
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestBadConfigPanics(t *testing.T) {
	p := testProgram()
	vm := mem.StandardMap(p.AppTextSize(), p.LibTextSize(), 1<<20, 4)
	for _, cfg := range []Config{{SAV: 0, BufferCap: 8}, {SAV: 3, BufferCap: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg, 4, p, vm, nil)
		}()
	}
}

// A restore puts the RNG where the captured unit's was, whether the
// restoring unit is freshly built (its source advances in place) or has
// already drawn past the capture point (its source is reseeded): the
// next draws match the captured unit's.
func TestRestoreStateRNGPosition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SAV = 1
	drive := func(u *Unit, p *isa.Program, events int) {
		for i := 0; i < events; i++ {
			u.OnHITM(event(p, 3, i%2 == 0))
		}
	}
	next := func(u *Unit) [8]float64 {
		var out [8]float64
		for i := range out {
			out[i] = u.rng.Float64()
		}
		return out
	}

	captured, p := newUnit(cfg, &collectSink{})
	drive(captured, p, 40)
	st := captured.CaptureState()
	if st.Draws == 0 {
		t.Fatal("driving the unit drew nothing")
	}
	want := next(captured)

	fresh, _ := newUnit(cfg, &collectSink{})
	ahead, p2 := newUnit(cfg, &collectSink{})
	drive(ahead, p2, 100)
	if ahead.src.n <= st.Draws {
		t.Fatalf("ahead unit drew %d, want more than %d", ahead.src.n, st.Draws)
	}
	for name, u := range map[string]*Unit{"fresh": fresh, "ahead": ahead} {
		if err := u.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		if u.src.n != st.Draws {
			t.Errorf("%s: draw count %d after restore, want %d", name, u.src.n, st.Draws)
		}
		if got := next(u); got != want {
			t.Errorf("%s: next draws %v, want %v", name, got, want)
		}
	}
}
