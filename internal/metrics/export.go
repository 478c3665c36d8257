package metrics

import (
	"fmt"
	"reflect"
	"strings"
)

// Exporter makes registry series a view over a plain stats struct: a
// simulated event bumps one struct field, and the structs' owner decides
// when to Publish them (the shard engine: at epoch barriers). It covers
// the integer fields of one struct type that carry a `metric:"<series>"`
// tag — …_total is a counter, anything else a gauge — and skips the
// rest. Reflection runs at construction and at publish, never per event.
type Exporter struct {
	typ    reflect.Type
	fields []exportField
}

type exportField struct {
	index   int
	counter *Counter // exactly one of counter and gauge is set
	gauge   *Gauge
}

// NewExporter resolves the tagged fields of stats' type (a struct or a
// pointer to one) to instruments on r. A tag on a field that is not an
// integer panics: a bug in the declaration, not in any input.
func NewExporter(r *Registry, stats any) *Exporter {
	t := reflect.TypeOf(stats)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	e := &Exporter{typ: t}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		if k := f.Type.Kind(); k < reflect.Int || k > reflect.Uint64 {
			panic(fmt.Sprintf("metrics: %v.%s is tagged %q but is not an integer", t, f.Name, name))
		}
		xf := exportField{index: i}
		if strings.HasSuffix(name, "_total") {
			xf.counter = r.Counter(name)
		} else {
			xf.gauge = r.Gauge(name)
		}
		e.fields = append(e.fields, xf)
	}
	return e
}

// Publish stores every tagged field of *stats into its instrument.
// stats must point to the type the exporter was built over.
func (e *Exporter) Publish(stats any) {
	v := reflect.ValueOf(stats)
	if v.Kind() != reflect.Pointer || v.Type().Elem() != e.typ {
		panic(fmt.Sprintf("metrics: exporter over %v published a %T", e.typ, stats))
	}
	v = v.Elem()
	for _, f := range e.fields {
		n, fv := int64(0), v.Field(f.index)
		if fv.CanInt() {
			n = fv.Int()
		} else {
			n = int64(fv.Uint())
		}
		if f.counter != nil {
			f.counter.Store(uint64(n))
		} else {
			f.gauge.Set(n)
		}
	}
}
