package sched

import (
	"reflect"
	"testing"
)

// walkStats visits every numeric leaf field of a Stats value, through the
// embedded core.SolveCounts and the nested Ops, with its path.
func walkStats(v reflect.Value, path string, visit func(path string, f reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			walkStats(f, name+".", visit)
		case reflect.Int, reflect.Int64:
			visit(name, f)
		default:
			panic("Stats field " + name + " is neither a counter nor a struct of counters")
		}
	}
}

// TestStatsTableCoversEveryCounter: every numeric field of Stats has
// exactly one statsTable row and every row a distinct metric name, so a
// counter cannot be half-added — counted by a shard but dropped from the
// cross-shard sum and from /metrics, or exported under another counter's
// name. It also pins add to the table: a snapshot of all ones added to
// itself is all twos.
func TestStatsTableCoversEveryCounter(t *testing.T) {
	var st Stats
	leaves := map[uintptr]string{}
	walkStats(reflect.ValueOf(&st).Elem(), "", func(path string, f reflect.Value) {
		leaves[f.Addr().Pointer()] = path
	})

	names := map[string]bool{}
	for _, row := range statsTable {
		if names[row.name] {
			t.Errorf("metric name %s is listed twice", row.name)
		}
		names[row.name] = true
		p := reflect.ValueOf(row.field(&st))
		field, ok := leaves[p.Pointer()]
		if !ok {
			t.Errorf("%s: its field is outside Stats, or already has a row", row.name)
			continue
		}
		delete(leaves, p.Pointer())
		if wantGauge := field == "Free" || field == "Usable"; row.gauge != wantGauge {
			t.Errorf("%s (Stats.%s): gauge = %v, want %v", row.name, field, row.gauge, wantGauge)
		}
		p.Elem().SetInt(1)
	}
	for _, field := range leaves {
		t.Errorf("Stats.%s has no statsTable row: it would be neither summed across shards nor exported", field)
	}

	ones := st
	st.add(&ones)
	walkStats(reflect.ValueOf(&st).Elem(), "", func(path string, f reflect.Value) {
		if f.Int() != 2 {
			t.Errorf("after adding all ones to all ones, Stats.%s = %d, want 2", path, f.Int())
		}
	})
}
