package dtd

import (
	"fmt"
	"strings"
)

// Parse reads DTD text in the dialect Render emits — <!ELEMENT> lines with
// (#PCDATA) leaves or ((#PCDATA), child-sequence) content models, plus
// optional <!ATTLIST> lines (which are validated for shape and otherwise
// ignored) — and reconstructs the DTD. The first element declared is the
// root. A particle is a child name with an optional occurrence indicator;
// a parenthesized group such as (a, b)+ is an error naming the content
// model that holds it.
func Parse(text string) (*DTD, error) {
	d := &DTD{index: make(map[string]*Element)}
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "<!--") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "<!ELEMENT"):
			el, err := parseElementDecl(line)
			if err != nil {
				return nil, fmt.Errorf("dtd: line %d: %w", ln+1, err)
			}
			if _, dup := d.index[el.Name]; dup {
				return nil, fmt.Errorf("dtd: line %d: duplicate element %q", ln+1, el.Name)
			}
			if d.RootName == "" {
				d.RootName = el.Name
			}
			d.Elements = append(d.Elements, el)
			d.index[el.Name] = el
		case strings.HasPrefix(line, "<!ATTLIST"):
			if !strings.HasSuffix(line, ">") {
				return nil, fmt.Errorf("dtd: line %d: unterminated ATTLIST", ln+1)
			}
		default:
			return nil, fmt.Errorf("dtd: line %d: unrecognized declaration %q", ln+1, line)
		}
	}
	// Every referenced child must be declared.
	for _, el := range d.Elements {
		for _, c := range el.Children {
			if d.index[c.Name] == nil {
				return nil, fmt.Errorf("dtd: element %q references undeclared %q", el.Name, c.Name)
			}
		}
	}
	return d, nil
}

func parseElementDecl(line string) (*Element, error) {
	body := strings.TrimPrefix(line, "<!ELEMENT")
	body = strings.TrimSpace(body)
	if !strings.HasSuffix(body, ">") {
		return nil, fmt.Errorf("unterminated ELEMENT declaration")
	}
	body = strings.TrimSuffix(body, ">")
	i := strings.IndexAny(body, " \t")
	if i < 0 {
		return nil, fmt.Errorf("missing content model")
	}
	name := body[:i]
	model := strings.TrimSpace(body[i:])
	el := &Element{Name: name}
	switch {
	case model == "(#PCDATA)":
		return el, nil
	case strings.HasPrefix(model, "((#PCDATA)") && strings.HasSuffix(model, ")"):
		rest := strings.TrimPrefix(model, "((#PCDATA)")
		rest = strings.TrimSuffix(rest, ")")
		if strings.ContainsAny(rest, "()") {
			return nil, fmt.Errorf("unsupported parenthesized group in content model %q: a particle is a child name with an optional ?, + or *", model)
		}
		for _, part := range strings.Split(rest, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			child, err := parseParticle(part)
			if err != nil {
				return nil, fmt.Errorf("%w in %q", err, model)
			}
			el.Children = append(el.Children, child)
		}
		return el, nil
	default:
		return nil, fmt.Errorf("unsupported content model %q", model)
	}
}

// parseParticle parses one content-model particle: name, name+, name? or
// name*.
func parseParticle(part string) (Child, error) {
	var child Child
	switch part[len(part)-1] {
	case '+':
		child.Repeat = Plus
		part = part[:len(part)-1]
	case '?':
		child.Repeat = Opt
		part = part[:len(part)-1]
	case '*':
		child.Repeat = Star
		part = part[:len(part)-1]
	}
	child.Name = strings.TrimSpace(part)
	if child.Name == "" {
		return child, fmt.Errorf("empty child name")
	}
	return child, nil
}
