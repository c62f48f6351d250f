package mem

import (
	"bufio"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct {
		addr Addr
		want Line
	}{
		{0, 0},
		{1, 0},
		{63, 0},
		{64, 64},
		{127, 64},
		{0x600010, 0x600000},
	}
	for _, c := range cases {
		if got := LineOf(c.addr); got != c.want {
			t.Errorf("LineOf(%#x) = %#x, want %#x", c.addr, got, c.want)
		}
	}
}

func TestOffsetProperty(t *testing.T) {
	f := func(a uint64) bool {
		addr := Addr(a)
		off := Offset(addr)
		return off < LineSize && Addr(LineOf(addr))+Addr(off) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpansLines(t *testing.T) {
	if SpansLines(0, 64) {
		t.Error("64B access at line start should not span")
	}
	if !SpansLines(60, 8) {
		t.Error("8B access at offset 60 must span")
	}
	if SpansLines(56, 8) {
		t.Error("8B access at offset 56 fits in one line")
	}
	if SpansLines(10, 0) {
		t.Error("zero-size access never spans")
	}
}

func TestAlignUpProperty(t *testing.T) {
	f := func(a uint32, shift uint8) bool {
		align := Addr(1) << (shift % 12)
		got := AlignUp(Addr(a), align)
		return got >= Addr(a) && got%align == 0 && got-Addr(a) < align
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStandardMapClassify(t *testing.T) {
	m := StandardMap(4096, 4096, 1<<20, 4)
	cases := []struct {
		addr   Addr
		kind   RegionKind
		mapped bool
	}{
		{AppTextBase, RegionApp, true},
		{AppTextBase + 4095, RegionApp, true},
		{AppTextBase + 4096, 0, false},
		{LibTextBase + 100, RegionLib, true},
		{HeapBase + 512, RegionHeap, true},
		{StackBase + 64, RegionStack, true},
		{KernelBase + 1, RegionKernel, true},
		{0x1000, 0, false}, // low unmapped
	}
	for _, c := range cases {
		kind, ok := m.Classify(c.addr)
		if ok != c.mapped {
			t.Errorf("Classify(%#x) mapped=%v, want %v", c.addr, ok, c.mapped)
			continue
		}
		if ok && kind != c.kind {
			t.Errorf("Classify(%#x) = %v, want %v", c.addr, kind, c.kind)
		}
	}
}

func TestMapCodeAndStackHelpers(t *testing.T) {
	m := StandardMap(4096, 4096, 1<<20, 2)
	if !m.IsCode(AppTextBase + 8) {
		t.Error("app text must be code")
	}
	if !m.IsCode(LibTextBase + 8) {
		t.Error("lib text must be code")
	}
	if m.IsCode(HeapBase + 8) {
		t.Error("heap is not code")
	}
	if !m.IsStack(StackBase + 8) {
		t.Error("stack region must be stack")
	}
	if m.IsStack(HeapBase) {
		t.Error("heap is not stack")
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	m := StandardMap(8192, 4096, 1<<20, 3)
	text := m.Render()
	if !strings.Contains(text, "[heap]") || !strings.Contains(text, "[stack:2]") {
		t.Fatalf("render missing expected names:\n%s", text)
	}
	parsed, err := ParseMap(text)
	if err != nil {
		t.Fatalf("ParseMap: %v", err)
	}
	if len(parsed.Regions()) != len(m.Regions()) {
		t.Fatalf("round trip region count = %d, want %d",
			len(parsed.Regions()), len(m.Regions()))
	}
	for i, r := range m.Regions() {
		p := parsed.Regions()[i]
		if p.Start != r.Start || p.End != r.End || p.Kind != r.Kind {
			t.Errorf("region %d: got %+v, want %+v", i, p, r)
		}
	}
}

func TestParseMapRejectsGarbage(t *testing.T) {
	if _, err := ParseMap("not a maps line\n"); err == nil {
		t.Error("expected error for malformed line")
	}
}

func TestMapAddOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on overlapping regions")
		}
	}()
	m := new(Map)
	m.Add(Region{Start: 0x1000, End: 0x2000, Kind: RegionApp})
	m.Add(Region{Start: 0x1800, End: 0x2800, Kind: RegionHeap})
}

func TestAllocatorHeaderAndAlignment(t *testing.T) {
	a := NewAllocator(1<<20, 0)
	p := a.Alloc(64)
	if p%MinAlign != 0 {
		t.Errorf("Alloc not %d-aligned: %#x", MinAlign, p)
	}
	if p < HeapBase+ChunkHeader {
		t.Errorf("first chunk %#x does not leave room for header", p)
	}
	// The Figure 2 effect: a 64-byte struct allocated with a 16-byte
	// header is NOT line-aligned, so consecutive structs straddle lines.
	if Offset(p) == 0 {
		t.Errorf("default allocation should not be line-aligned (got %#x)", p)
	}
	q := a.Alloc(64)
	if q < p+64 {
		t.Errorf("chunks overlap: %#x after %#x", q, p)
	}
}

func TestAllocatorBiasShiftsLayout(t *testing.T) {
	a0 := NewAllocator(1<<20, 0)
	a1 := NewAllocator(1<<20, ChunkHeader)
	p0 := a0.Alloc(64)
	p1 := a1.Alloc(64)
	if Offset(p0) == Offset(p1) {
		t.Errorf("bias should change line offset: both at %d", Offset(p0))
	}
}

func TestAllocAligned(t *testing.T) {
	a := NewAllocator(1<<20, 0)
	a.Alloc(24) // disturb
	p := a.AllocAligned(256, LineSize)
	if Offset(p) != 0 {
		t.Errorf("AllocAligned(…, 64) not line aligned: %#x", p)
	}
}

func TestAllocatorNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := NewAllocator(1<<24, 0)
		type span struct{ lo, hi Addr }
		var spans []span
		for _, s := range sizes {
			n := Addr(s%4096 + 1)
			p := a.Alloc(n)
			for _, sp := range spans {
				if p < sp.hi && sp.lo < p+n {
					return false
				}
			}
			spans = append(spans, span{p, p + n})
			if len(spans) > 200 {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAllocatorExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on heap exhaustion")
		}
	}()
	a := NewAllocator(256, 0)
	a.Alloc(512)
}

func TestStackFor(t *testing.T) {
	for tid := 0; tid < 4; tid++ {
		base, top, sp := StackFor(tid)
		if top-base != StackSize {
			t.Errorf("thread %d: stack size %#x", tid, top-base)
		}
		if sp < base || sp >= top || sp%16 != 0 {
			t.Errorf("thread %d: bad sp %#x", tid, sp)
		}
	}
	// Stacks of distinct threads must not overlap.
	b0, t0, _ := StackFor(0)
	b1, _, _ := StackFor(1)
	if b1 < t0 || b0 >= b1 {
		t.Error("adjacent stacks overlap or are misordered")
	}
}

// parseMapSscanf is the fmt.Sscanf parser ParseMap replaced, kept as
// the reference FuzzParseMap checks it against. It panics where Add
// does, on an empty or overlapping region.
func parseMapSscanf(s string) (*Map, error) {
	m := new(Map)
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var start, end uint64
		var perms, rest string
		n, err := fmt.Sscanf(line, "%x-%x %s", &start, &end, &perms)
		if err != nil || n != 3 {
			return nil, fmt.Errorf("mem: bad maps line %q", line)
		}
		if i := strings.LastIndex(line, " "); i >= 0 {
			rest = line[i+1:]
		}
		kind := RegionApp
		switch {
		case strings.HasPrefix(rest, "[stack"):
			kind = RegionStack
		case rest == "[heap]":
			kind = RegionHeap
		case rest == "[kernel]":
			kind = RegionKernel
		case strings.HasSuffix(rest, ".so"):
			kind = RegionLib
		}
		m.Add(Region{Start: Addr(start), End: Addr(end), Kind: kind, Name: rest})
	}
	return m, sc.Err()
}

// FuzzParseMap: ParseMap accepts exactly the listings the fmt.Sscanf
// reference accepts, with the same regions — except that an empty or
// overlapping region, on which the reference panics, is an error. The
// seeds — StandardMap renders and malformed lines — are checked in under
// testdata/fuzz; the two lines at the old scanner's 64 KiB limit are
// built here.
func FuzzParseMap(f *testing.F) {
	for _, n := range []int{bufio.MaxScanTokenSize - 1, bufio.MaxScanTokenSize} {
		line := "1000-2000 rw-p "
		f.Add(line + strings.Repeat("x", n-len(line)) + "\n")
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseMap(s)
		want, werr := func() (m *Map, err error) {
			defer func() {
				if r := recover(); r != nil {
					m, err = nil, fmt.Errorf("reference panicked: %v", r)
				}
			}()
			return parseMapSscanf(s)
		}()
		if (err == nil) != (werr == nil) {
			t.Fatalf("ParseMap error %v, reference error %v", err, werr)
		}
		if err == nil && !reflect.DeepEqual(got.Regions(), want.Regions()) {
			t.Fatalf("regions differ:\n got %+v\nwant %+v", got.Regions(), want.Regions())
		}
	})
}

func BenchmarkParseMap(b *testing.B) {
	text := StandardMap(8192, 4096, 1<<20, 4).Render()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseMap(text); err != nil {
			b.Fatal(err)
		}
	}
}
