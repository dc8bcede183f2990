// Package spec reads the repository's key=value spec strings (forksim's
// -partitions, -storage-faults and -crash, forknode's -faults). A struct
// that such a string fills declares each of its knobs once, as a Knob
// row: the keys that set it, the Go field it lands in, its bounds and its
// default; the field's Go type is the knob's kind. Parsing is a row
// lookup, and Check loops the same rows over a struct built in Go, so
// both meet the same bounds.
package spec

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"
)

// List splits s at sep and returns the trimmed, non-empty elements.
func List(s, sep string) []string {
	var out []string
	for _, el := range strings.Split(s, sep) {
		if el = strings.TrimSpace(el); el != "" {
			out = append(out, el)
		}
	}
	return out
}

// Knob declares one field of a spec struct. The field's type is the
// knob's kind: a float64 (always finite), a signed or unsigned integer, a
// time.Duration (written "20ms", never negative), a bool or a string.
type Knob struct {
	// Keys are the spec keys that set the field, '|'-separated
	// ("behaviour|behavior"); the first names the knob in errors.
	// Several knobs may list one key, which then sets all of them.
	Keys string
	// Field is the Go field name: errors name it, and it is how the
	// knob finds its value in the struct.
	Field string
	// Min and Max bound a numeric field; both zero leaves it unbounded.
	Min, Max float64
	// Default is the field's value before a spec string is applied: a
	// constant, or a func(idx int) any of the element's position in its
	// list. nil leaves the zero value.
	Default any
}

var durationType = reflect.TypeOf(time.Duration(0))

// name is how errors refer to the knob: its Go field, then its key.
func (k Knob) name() string {
	key, _, _ := strings.Cut(k.Keys, "|")
	return k.Field + " (" + key + ")"
}

// Set parses val into the knob's field of the struct *dst and
// range-checks it.
func (k Knob) Set(dst any, val string) error {
	f := reflect.ValueOf(dst).Elem().FieldByName(k.Field)
	var err error
	switch {
	case f.Type() == durationType:
		var d time.Duration
		d, err = time.ParseDuration(val)
		f.SetInt(int64(d))
	case f.CanFloat():
		var x float64
		x, err = strconv.ParseFloat(val, 64)
		f.SetFloat(x)
	case f.CanInt():
		var x int64
		x, err = strconv.ParseInt(val, 10, f.Type().Bits())
		f.SetInt(x)
	case f.CanUint():
		var x uint64
		x, err = strconv.ParseUint(val, 10, f.Type().Bits())
		f.SetUint(x)
	case f.Kind() == reflect.Bool:
		var b bool
		b, err = strconv.ParseBool(val)
		f.SetBool(b)
	default:
		f.SetString(val)
	}
	if err != nil {
		return fmt.Errorf("%s: bad value %q", k.name(), val)
	}
	return k.check(f)
}

// check range-checks the knob's field f.
func (k Knob) check(f reflect.Value) error {
	var x float64
	switch {
	case f.CanFloat():
		if x = f.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%s %v is not finite", k.name(), x)
		}
	case f.Type() == durationType && f.Int() < 0:
		return fmt.Errorf("%s %v is negative", k.name(), f)
	case f.CanInt():
		x = float64(f.Int())
	case f.CanUint():
		x = float64(f.Uint())
	default:
		return nil
	}
	if (k.Min != 0 || k.Max != 0) && (x < k.Min || x > k.Max) {
		return fmt.Errorf("%s %v outside [%g, %g]", k.name(), f, k.Min, k.Max)
	}
	return nil
}

// Parse applies a comma-separated key=value list to the struct *dst. Keys
// are case-insensitive; an element without '=' or with a key no knob
// lists is refused.
func Parse(dst any, knobs []Knob, s string) error {
	for _, el := range List(s, ",") {
		key, val, ok := strings.Cut(el, "=")
		if !ok {
			return fmt.Errorf("bad element %q (want key=value)", el)
		}
		key, val = strings.ToLower(strings.TrimSpace(key)), strings.TrimSpace(val)
		known := false
		for _, k := range knobs {
			for _, kk := range strings.Split(k.Keys, "|") {
				if kk != key {
					continue
				}
				known = true
				if err := k.Set(dst, val); err != nil {
					return err
				}
			}
		}
		if !known {
			return fmt.Errorf("unknown key %q", key)
		}
	}
	return nil
}

// Check range-checks every knob's field of src, a struct or a pointer to
// one.
func Check(src any, knobs []Knob) error {
	v := reflect.Indirect(reflect.ValueOf(src))
	for _, k := range knobs {
		if err := k.check(v.FieldByName(k.Field)); err != nil {
			return err
		}
	}
	return nil
}

// Defaults sets every knob's default on the struct *dst; idx is the
// element's position in its list, for index-dependent defaults.
func Defaults(dst any, knobs []Knob, idx int) {
	v := reflect.ValueOf(dst).Elem()
	for _, k := range knobs {
		d := k.Default
		if perIndex, ok := d.(func(int) any); ok {
			d = perIndex(idx)
		}
		if d != nil {
			f := v.FieldByName(k.Field)
			f.Set(reflect.ValueOf(d).Convert(f.Type()))
		}
	}
}
