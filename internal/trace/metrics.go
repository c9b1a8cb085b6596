package trace

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"unicode"
)

// Family is one metric family, declared once by the package that owns
// its values: the name and Prometheus TYPE ("counter", "gauge" or
// "histogram") it is exposed under, its HELP text, and a read of the
// live values.
type Family struct {
	Name, Type, Help string
	// Read calls emit once per series with the series' value — an
	// int64, a float64 or a *Histogram — and its label pairs (name,
	// value, name, value, ...).
	Read func(emit func(v any, labels ...string))
}

// labelEscaper escapes a label value as the text format requires.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WriteText renders families in the Prometheus text exposition format
// (0.0.4): each family's HELP and TYPE lines, then its series. A
// histogram's buckets are cumulative, with the series' own labels
// ahead of le.
func WriteText(w io.Writer, fams []Family) {
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		f.Read(func(v any, labels ...string) {
			var b strings.Builder
			for i := 0; i+1 < len(labels); i += 2 {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `%s="%s"`, labels[i], labelEscaper.Replace(labels[i+1]))
			}
			ls := b.String()
			set := ""
			if ls != "" {
				set = "{" + ls + "}"
			}
			h, ok := v.(*Histogram)
			if !ok {
				fmt.Fprintf(w, "%s%s %v\n", f.Name, set, v)
				return
			}
			snap := h.Snapshot()
			if ls != "" {
				ls += ","
			}
			cum := int64(0)
			for i, c := range snap.Counts {
				cum += c
				le := "+Inf"
				if i < len(snap.Bounds) {
					le = fmt.Sprintf("%g", snap.Bounds[i])
				}
				fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", f.Name, ls, le, cum)
			}
			fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", f.Name, set, snap.Sum, f.Name, set, snap.Count)
		})
	}
}

// Fields calls fn with each field of v, a struct of int64 counters, in
// declaration order, under the snake_case form of its name (BytesRead:
// bytes_read). A field tagged `metric:"-"` is skipped.
func Fields(v any, fn func(name string, n int64)) {
	rv := reflect.ValueOf(v)
	for i := range rv.NumField() {
		f := rv.Type().Field(i)
		if f.Tag.Get("metric") == "-" {
			continue
		}
		var name strings.Builder
		for j, r := range f.Name {
			if unicode.IsUpper(r) {
				if j > 0 {
					name.WriteByte('_')
				}
				r = unicode.ToLower(r)
			}
			name.WriteRune(r)
		}
		fn(name.String(), rv.Field(i).Int())
	}
}
