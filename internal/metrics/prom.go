package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// family is one metric family: one # HELP / # TYPE header over the
// samples of every field tagged with its name.
type family struct {
	name, typ, help string
	body            strings.Builder
}

// exposition collects families in the order their fields are declared.
type exposition struct {
	families []*family
	byName   map[string]*family
}

// WriteProm writes s in the Prometheus text format (0.0.4), as its struct
// tags direct: one # HELP and # TYPE per family that has samples, map
// keys in sorted order.
func WriteProm(w io.Writer, s Snapshot) error {
	e := exposition{byName: make(map[string]*family)}
	e.walk(reflect.ValueOf(s), "")
	var out strings.Builder
	for _, f := range e.families {
		if f.body.Len() > 0 {
			fmt.Fprintf(&out, "# HELP %s %s\n# TYPE %s %s\n%s", f.name, f.help, f.name, f.typ, f.body.String())
		}
	}
	_, err := io.WriteString(w, out.String())
	return err
}

// walk exports the tagged fields of the struct v; scope holds the labels
// the enclosing structs' `label` fields contribute, with trailing commas.
func (e *exposition) walk(v reflect.Value, scope string) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if name, ok := strings.CutSuffix(t.Field(i).Tag.Get("prom"), ",label"); ok {
			scope += label(name, v.Field(i).String())
		}
	}
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		tag, ok := f.Tag.Lookup("prom")
		if !ok {
			if fv.Kind() == reflect.Pointer && !fv.IsNil() {
				fv = fv.Elem()
			}
			if fv.Kind() == reflect.Struct {
				e.walk(fv, scope)
			}
			continue
		}
		parts := strings.Split(tag, ",")
		if len(parts) < 2 || parts[1] == "label" {
			continue
		}
		fam := e.byName[parts[0]]
		if fam == nil {
			fam = &family{name: parts[0], typ: parts[1]}
			e.byName[fam.name] = fam
			e.families = append(e.families, fam)
		}
		if fam.help == "" {
			fam.help = f.Tag.Get("help")
		}
		emit := func(key string, v reflect.Value) {
			labels := scope
			for _, kv := range parts[2:] {
				name, value, _ := strings.Cut(kv, "=")
				if value == "*" {
					value = key
				}
				labels += label(name, value)
			}
			if fam.typ == "histogram" {
				histogram(&fam.body, fam.name, labels, v)
			} else {
				sample(&fam.body, fam.name, labels, v)
			}
		}
		if fv.Kind() != reflect.Map {
			emit("", fv)
			continue
		}
		keys := fv.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			emit(k.String(), fv.MapIndex(k))
		}
	}
}

// histogram writes one histogram series from a value struct whose fields
// are tagged _count, _sum, _bucket (cumulative counts) and le (bounds).
func histogram(b *strings.Builder, name, labels string, v reflect.Value) {
	var bounds, counts, total reflect.Value
	for i := 0; i < v.NumField(); i++ {
		switch tag := v.Type().Field(i).Tag.Get("prom"); tag {
		case "le":
			bounds = v.Field(i)
		case "_bucket":
			counts = v.Field(i)
		case "_count", "_sum":
			sample(b, name+tag, labels, v.Field(i))
			if tag == "_count" {
				total = v.Field(i)
			}
		}
	}
	for i := 0; i < bounds.Len(); i++ {
		sample(b, name+"_bucket", labels+label("le", formatFloat(bounds.Index(i).Float())), counts.Index(i))
	}
	sample(b, name+"_bucket", labels+label("le", "+Inf"), total)
}

// sample writes one `name{labels} value` line; labels carry a trailing comma.
func sample(b *strings.Builder, name, labels string, v reflect.Value) {
	b.WriteString(name)
	if labels != "" {
		b.WriteString("{" + labels[:len(labels)-1] + "}")
	}
	b.WriteByte(' ')
	if v.CanInt() {
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	} else {
		b.WriteString(formatFloat(v.Float()))
	}
	b.WriteByte('\n')
}

// labelEscaper applies the text format's only three label-value escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// label renders `name="value",`: the value escaped per the text format,
// invalid UTF-8 replaced by U+FFFD.
func label(name, value string) string {
	return name + `="` + labelEscaper.Replace(strings.ToValidUTF8(value, "\uFFFD")) + `",`
}

// formatFloat renders integral values without an exponent or trailing
// zeros, everything else as shortest round-trip (+Inf, -Inf, NaN as the
// text format spells them).
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves GET /metrics: one snapshot per scrape, as text exposition.
func Handler(snapshot func() Snapshot) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteProm(w, snapshot()) // a failed write means the scraper left; no one to tell
	}
}
