// Package template implements the configuration templating used by
// multi-user endpoints: administrators write endpoint config templates with
// {{ NAME }} placeholders (optionally {{ NAME|default("value") }} and other
// filters, as with the Jinja2 templates in the paper's Listing 9), users
// supply property values at submit time, and a schema validates those values
// before rendering to protect against injection.
package template

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// Common errors.
var (
	ErrMissingVar    = errors.New("template: missing variable")
	ErrUnknownFilter = errors.New("template: unknown filter")
	ErrSchema        = errors.New("template: schema violation")
)

// placeholder matches {{ NAME }} and {{ NAME|filter }} / {{ NAME|filter("arg") }}.
var placeholder = regexp.MustCompile(`\{\{\s*([A-Za-z_][A-Za-z0-9_]*)\s*(\|[^}]*)?\}\}`)

// filterCall matches one |name or |name("arg") segment.
var filterCall = regexp.MustCompile(`^([a-z_]+)(?:\(\s*"((?:[^"\\]|\\.)*)"\s*\))?$`)

// Render substitutes placeholders in tmpl from vars. A variable missing from
// vars fails unless a default(...) filter provides a value. Values render
// via fmt for scalars; the json filter emits a JSON literal.
func Render(tmpl string, vars map[string]any) (string, error) {
	var firstErr error
	out := placeholder.ReplaceAllStringFunc(tmpl, func(m string) string {
		sub := placeholder.FindStringSubmatch(m)
		name, filters := sub[1], sub[2]
		val, ok := vars[name]
		rendered := ""
		if ok {
			rendered = renderValue(val)
		}
		if filters != "" {
			for _, f := range strings.Split(strings.TrimPrefix(filters, "|"), "|") {
				f = strings.TrimSpace(f)
				if f == "" {
					continue
				}
				fc := filterCall.FindStringSubmatch(f)
				if fc == nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("%w: %q", ErrUnknownFilter, f)
					}
					return m
				}
				fname, farg := fc[1], unescape(fc[2])
				switch fname {
				case "default":
					if !ok {
						rendered = farg
						ok = true
					}
				case "lower":
					rendered = strings.ToLower(rendered)
				case "upper":
					rendered = strings.ToUpper(rendered)
				case "json":
					src := val
					if !ok {
						src = nil
					}
					b, err := json.Marshal(src)
					if err != nil {
						if firstErr == nil {
							firstErr = fmt.Errorf("template: json filter: %w", err)
						}
						return m
					}
					rendered = string(b)
				default:
					if firstErr == nil {
						firstErr = fmt.Errorf("%w: %q", ErrUnknownFilter, fname)
					}
					return m
				}
			}
		}
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: %s", ErrMissingVar, name)
			}
			return m
		}
		return rendered
	})
	if firstErr != nil {
		return "", firstErr
	}
	return out, nil
}

func renderValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		// JSON numbers decode as float64; render integers without decimals.
		if x == float64(int64(x)) {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case nil:
		return ""
	default:
		return fmt.Sprint(x)
	}
}

func unescape(s string) string {
	s = strings.ReplaceAll(s, `\"`, `"`)
	s = strings.ReplaceAll(s, `\\`, `\`)
	return s
}

// PropType is a schema property type.
type PropType string

const (
	TypeString  PropType = "string"
	TypeInteger PropType = "integer"
	TypeNumber  PropType = "number"
	TypeBoolean PropType = "boolean"
)

// Property constrains one user-supplied template variable.
type Property struct {
	Type     PropType `json:"type"`
	Required bool     `json:"required,omitempty"`
	// Pattern constrains string values (anchored automatically).
	Pattern string `json:"pattern,omitempty"`
	// MaxLength bounds string length (0 = 256, the injection guard).
	MaxLength int `json:"max_length,omitempty"`
	// Minimum/Maximum bound numeric values when both are non-nil.
	Minimum *float64 `json:"minimum,omitempty"`
	Maximum *float64 `json:"maximum,omitempty"`
	// Enum restricts values to this set when non-empty.
	Enum []string `json:"enum,omitempty"`
}

// Schema validates a user configuration against per-property constraints.
// AdditionalProperties=false (the default) rejects unknown keys.
type Schema struct {
	Properties           map[string]Property `json:"properties"`
	AdditionalProperties bool                `json:"additional_properties,omitempty"`
}

// unsafe matches characters that would let a string value escape a JSON or
// YAML scalar context; they are rejected in strings without an explicit
// pattern, the template system's injection guard.
var unsafe = regexp.MustCompile("[\"'\n\r{}\\\\]")

// Validate checks vars against the schema.
func (s Schema) Validate(vars map[string]any) error {
	for name, prop := range s.Properties {
		val, ok := vars[name]
		if !ok {
			if prop.Required {
				return fmt.Errorf("%w: missing required property %q", ErrSchema, name)
			}
			continue
		}
		if err := prop.check(name, val); err != nil {
			return err
		}
	}
	if !s.AdditionalProperties {
		for name := range vars {
			if _, ok := s.Properties[name]; !ok {
				return fmt.Errorf("%w: unknown property %q", ErrSchema, name)
			}
		}
	}
	return nil
}

func (p Property) check(name string, val any) error {
	switch p.Type {
	case TypeString, "":
		s, ok := val.(string)
		if !ok {
			return fmt.Errorf("%w: %q must be a string, got %T", ErrSchema, name, val)
		}
		maxLen := p.MaxLength
		if maxLen == 0 {
			maxLen = 256
		}
		if len(s) > maxLen {
			return fmt.Errorf("%w: %q exceeds %d characters", ErrSchema, name, maxLen)
		}
		if len(p.Enum) > 0 {
			found := false
			for _, e := range p.Enum {
				if s == e {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("%w: %q value %q not in enum", ErrSchema, name, s)
			}
			return nil
		}
		if p.Pattern != "" {
			re, err := regexp.Compile("^(?:" + p.Pattern + ")$")
			if err != nil {
				return fmt.Errorf("template: bad pattern for %q: %w", name, err)
			}
			if !re.MatchString(s) {
				return fmt.Errorf("%w: %q value %q does not match %q", ErrSchema, name, s, p.Pattern)
			}
			return nil
		}
		if loc := unsafe.FindString(s); loc != "" {
			return fmt.Errorf("%w: %q contains unsafe character %q", ErrSchema, name, loc)
		}
	case TypeInteger:
		f, ok := toFloat(val)
		if !ok || f != float64(int64(f)) {
			return fmt.Errorf("%w: %q must be an integer, got %v", ErrSchema, name, val)
		}
		return p.checkRange(name, f)
	case TypeNumber:
		f, ok := toFloat(val)
		if !ok {
			return fmt.Errorf("%w: %q must be a number, got %T", ErrSchema, name, val)
		}
		return p.checkRange(name, f)
	case TypeBoolean:
		if _, ok := val.(bool); !ok {
			return fmt.Errorf("%w: %q must be a boolean, got %T", ErrSchema, name, val)
		}
	default:
		return fmt.Errorf("%w: property %q has unknown type %q", ErrSchema, name, p.Type)
	}
	return nil
}

func (p Property) checkRange(name string, f float64) error {
	if p.Minimum != nil && f < *p.Minimum {
		return fmt.Errorf("%w: %q value %g below minimum %g", ErrSchema, name, f, *p.Minimum)
	}
	if p.Maximum != nil && f > *p.Maximum {
		return fmt.Errorf("%w: %q value %g above maximum %g", ErrSchema, name, f, *p.Maximum)
	}
	return nil
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	default:
		return 0, false
	}
}
