package core

import (
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/driver"
	"repro/internal/mem"
)

// A PipeState must rebuild the pipeline's reports exactly — including
// after a codec round trip, which is how laser session snapshots carry
// detector state.
func TestPipeStateReportEquivalence(t *testing.T) {
	pipe, secs := runDetect(t, fsProgram(), fsSpecs(), 19)
	st := pipe.State()

	b, err := codec.Append(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded PipeState
	if err := codec.Decode(b, &decoded); err != nil {
		t.Fatal(err)
	}

	for _, th := range []float64{0, 32, 1_000, 65_536} {
		want := pipe.ReportAt(secs, th)
		for i, got := range []*Report{st.ReportAt(secs, th), decoded.ReportAt(secs, th)} {
			if !reflect.DeepEqual(want, got) {
				t.Errorf("ReportAt(%.0f) variant %d differs:\n%s\nvs\n%s", th, i, want.Render(), got.Render())
			}
			if want.Render() != got.Render() {
				t.Errorf("render differs at threshold %.0f", th)
			}
		}
	}
	if want, got := pipe.Report(secs).Render(), decoded.Report(secs).Render(); want != got {
		t.Errorf("default-threshold report differs:\n%s\nvs\n%s", want, got)
	}
	if pipe.DetectorCycles() != decoded.DetectorCycles() {
		t.Errorf("detector cycles %d != %d", pipe.DetectorCycles(), decoded.DetectorCycles())
	}
	if pipe.Filter() != decoded.Filter {
		t.Errorf("filter stats differ: %+v vs %+v", pipe.Filter(), decoded.Filter)
	}
}

// Snapshots are independent of the live pipeline: feeding more records
// afterwards must not change an already-taken state.
func TestPipeStateIndependence(t *testing.T) {
	prog := fsProgram()
	pipe, secs := runDetect(t, prog, fsSpecs(), 19)
	st := pipe.State()
	if len(st.Lines) == 0 || len(st.FSByPC) == 0 {
		t.Fatalf("false-sharing run snapshot is empty: %+v", st)
	}
	before := st.Report(secs).Render()

	// Feed the live pipeline more records attributed to the contended
	// instructions; the snapshot must not move.
	var recs []driver.Record
	for i := range prog.Instrs {
		if prog.Instrs[i].IsMem() {
			recs = append(recs, driver.Record{
				PC: prog.Instrs[i].PC, Addr: mem.HeapBase, Cycles: uint64(1_000_000 + i),
			})
		}
	}
	pipe.Feed(recs)
	if pipe.State().Report(secs).Render() == before {
		t.Fatal("extra records did not change the live pipeline; mutation check is vacuous")
	}
	if got := st.Report(secs).Render(); got != before {
		t.Errorf("snapshot changed after further pipeline activity:\n%s\nvs\n%s", before, got)
	}
}
