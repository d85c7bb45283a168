package pattern

import (
	"fmt"
)

// ParseError describes a syntax error in an RPQ expression, with the
// byte offset at which it was detected.
type ParseError struct {
	Input string
	Pos   int
	Msg   string
}

func (e *ParseError) Error() string {
	in := e.Input
	if len(in) > MaxLen {
		in = in[:MaxLen] + "..."
	}
	return fmt.Sprintf("pattern: %s at offset %d in %q", e.Msg, e.Pos, in)
}

// The parser's limits (see the package comment). The longest expression
// of the test corpora (Table 2's templates, the fixtures, the gMark
// workloads and their rewrites) is 347 bytes, the deepest 6 levels.
const (
	// MaxLen is the longest input Parse scans, in bytes.
	MaxLen = 16 << 10
	// MaxDepth bounds the nesting of parentheses plus the postfix
	// operators applied at each level.
	MaxDepth = 64
)

// Parse parses an RPQ regular expression in the ASCII dialect described
// in the package comment and returns its AST.
func Parse(input string) (*Expr, error) {
	if len(input) > MaxLen {
		return nil, &ParseError{Input: input, Pos: MaxLen, Msg: fmt.Sprintf("expression longer than %d bytes", MaxLen)}
	}
	p := &parser{input: input}
	p.next()
	e, err := p.alt()
	if err != nil {
		return nil, err
	}
	if p.tok != tokEOF {
		return nil, p.errorf("unexpected %s", p.tokString())
	}
	return e, nil
}

// MustParse is like Parse but panics on error. It is intended for
// statically known expressions such as workload tables.
func MustParse(input string) *Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

type token int

const (
	tokEOF token = iota
	tokLabel
	tokLParen
	tokRParen
	tokPipe  // |
	tokSlash // /
	tokStar  // *
	tokPlus  // +
	tokOpt   // ?
)

type parser struct {
	input string
	pos   int    // current scan offset
	tok   token  // current token
	lit   string // literal for tokLabel
	start int    // offset of current token
	depth int    // enclosing alts plus the postfix operators of the current unary
}

func isLabelByte(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '_' || c == ':' || c == '.' || c == '-' || c == '<' || c == '>' || c == '#':
		return true
	}
	return false
}

func (p *parser) next() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t' || p.input[p.pos] == '\n') {
		p.pos++
	}
	p.start = p.pos
	if p.pos >= len(p.input) {
		p.tok = tokEOF
		return
	}
	c := p.input[p.pos]
	switch c {
	case '(':
		p.tok, p.pos = tokLParen, p.pos+1
	case ')':
		p.tok, p.pos = tokRParen, p.pos+1
	case '|':
		p.tok, p.pos = tokPipe, p.pos+1
	case '/':
		p.tok, p.pos = tokSlash, p.pos+1
	case '*':
		p.tok, p.pos = tokStar, p.pos+1
	case '+':
		p.tok, p.pos = tokPlus, p.pos+1
	case '?':
		p.tok, p.pos = tokOpt, p.pos+1
	default:
		if !isLabelByte(c) {
			p.tok = tokEOF
			p.lit = ""
			p.start = p.pos
			// Leave pos where it is; alt() will surface the error.
			p.tok = tokLabel
			p.lit = string(c) // invalid; reported by caller via validation
			p.pos++
			return
		}
		j := p.pos
		for j < len(p.input) && isLabelByte(p.input[j]) {
			j++
		}
		p.tok, p.lit, p.pos = tokLabel, p.input[p.pos:j], j
	}
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Input: p.input, Pos: p.start, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) tokString() string {
	switch p.tok {
	case tokEOF:
		return "end of input"
	case tokLabel:
		return fmt.Sprintf("label %q", p.lit)
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokPipe:
		return "'|'"
	case tokSlash:
		return "'/'"
	case tokStar:
		return "'*'"
	case tokPlus:
		return "'+'"
	case tokOpt:
		return "'?'"
	}
	return "unknown token"
}

// alt := concat ('|' concat)*
func (p *parser) alt() (*Expr, error) {
	if p.depth++; p.depth > MaxDepth {
		return nil, p.errorf("expression nested deeper than %d", MaxDepth)
	}
	defer func() { p.depth-- }()
	first, err := p.concat()
	if err != nil {
		return nil, err
	}
	subs := []*Expr{first}
	for p.tok == tokPipe {
		p.next()
		e, err := p.concat()
		if err != nil {
			return nil, err
		}
		subs = append(subs, e)
	}
	return Alt(subs...), nil
}

// concat := unary (('/' | juxtaposition) unary)*
func (p *parser) concat() (*Expr, error) {
	first, err := p.unary()
	if err != nil {
		return nil, err
	}
	subs := []*Expr{first}
	for {
		switch p.tok {
		case tokSlash:
			p.next()
			e, err := p.unary()
			if err != nil {
				return nil, err
			}
			subs = append(subs, e)
		case tokLabel, tokLParen:
			e, err := p.unary()
			if err != nil {
				return nil, err
			}
			subs = append(subs, e)
		default:
			return Concat(subs...), nil
		}
	}
}

// unary := atom ('*' | '+' | '?')*
func (p *parser) unary() (*Expr, error) {
	e, err := p.atom()
	if err != nil {
		return nil, err
	}
	defer func(depth int) { p.depth = depth }(p.depth)
	for p.tok == tokStar || p.tok == tokPlus || p.tok == tokOpt {
		if p.depth++; p.depth > MaxDepth {
			return nil, p.errorf("expression nested deeper than %d", MaxDepth)
		}
		switch p.tok {
		case tokStar:
			e = Star(e)
		case tokPlus:
			e = Plus(e)
		default:
			e = Opt(e)
		}
		p.next()
	}
	return e, nil
}

// atom := label | '(' alt ')' | '()'
func (p *parser) atom() (*Expr, error) {
	switch p.tok {
	case tokLabel:
		if len(p.lit) == 1 && !isLabelByte(p.lit[0]) {
			return nil, p.errorf("invalid character %q", p.lit)
		}
		e := Label(p.lit)
		p.next()
		return e, nil
	case tokLParen:
		p.next()
		if p.tok == tokRParen { // '()' is ε
			p.next()
			return Empty(), nil
		}
		e, err := p.alt()
		if err != nil {
			return nil, err
		}
		if p.tok != tokRParen {
			return nil, p.errorf("expected ')', found %s", p.tokString())
		}
		p.next()
		return e, nil
	default:
		return nil, p.errorf("expected label or '(', found %s", p.tokString())
	}
}

// Validate returns an error if the expression is malformed (nil children
// or wrong arity). It is a defensive check for programmatically built
// trees.
func Validate(e *Expr) error {
	if e == nil {
		return fmt.Errorf("pattern: nil expression")
	}
	switch e.Op {
	case OpEmpty:
		if len(e.Subs) != 0 {
			return fmt.Errorf("pattern: ε must have no children")
		}
	case OpLabel:
		if e.Label == "" {
			return fmt.Errorf("pattern: empty label")
		}
		if len(e.Subs) != 0 {
			return fmt.Errorf("pattern: label must have no children")
		}
		for i := 0; i < len(e.Label); i++ {
			if !isLabelByte(e.Label[i]) {
				return fmt.Errorf("pattern: invalid byte %q in label %q", e.Label[i], e.Label)
			}
		}
	case OpConcat, OpAlt:
		if len(e.Subs) < 2 {
			return fmt.Errorf("pattern: %s needs at least 2 children", e.Op)
		}
	case OpStar, OpPlus, OpOpt:
		if len(e.Subs) != 1 {
			return fmt.Errorf("pattern: %s needs exactly 1 child", e.Op)
		}
	default:
		return fmt.Errorf("pattern: unknown op %d", int(e.Op))
	}
	for _, s := range e.Subs {
		if err := Validate(s); err != nil {
			return err
		}
	}
	return nil
}

// Matcher is a direct recursive matcher over the AST, used as a
// correctness oracle for the automaton pipeline in tests. It reports
// whether the word (a sequence of labels) belongs to L(e).
func Matcher(e *Expr, word []string) bool {
	return match(e, word, 0, len(word))
}

// match reports whether word[i:j] ∈ L(e). Exponential in the worst
// case; only used on short words in tests.
func match(e *Expr, word []string, i, j int) bool {
	switch e.Op {
	case OpEmpty:
		return i == j
	case OpLabel:
		return j == i+1 && word[i] == e.Label
	case OpAlt:
		for _, s := range e.Subs {
			if match(s, word, i, j) {
				return true
			}
		}
		return false
	case OpConcat:
		return matchSeq(e.Subs, word, i, j)
	case OpOpt:
		return i == j || match(e.Subs[0], word, i, j)
	case OpStar:
		if i == j {
			return true
		}
		return matchRep(e.Subs[0], word, i, j)
	case OpPlus:
		return matchRep(e.Subs[0], word, i, j)
	}
	return false
}

// matchSeq reports whether word[i:j] ∈ L(subs[0] ◦ ... ◦ subs[n-1]).
func matchSeq(subs []*Expr, word []string, i, j int) bool {
	if len(subs) == 0 {
		return i == j
	}
	if len(subs) == 1 {
		return match(subs[0], word, i, j)
	}
	for k := i; k <= j; k++ {
		if match(subs[0], word, i, k) && matchSeq(subs[1:], word, k, j) {
			return true
		}
	}
	return false
}

// matchRep reports whether word[i:j] is a concatenation of one or more
// matches of e, each nonempty unless i==j.
func matchRep(e *Expr, word []string, i, j int) bool {
	if match(e, word, i, j) {
		return true
	}
	for k := i + 1; k < j; k++ {
		if match(e, word, i, k) && matchRep(e, word, k, j) {
			return true
		}
	}
	return false
}

// RandomWord is a helper for tests: it deterministically derives a word
// of the given length from seed over alphabet.
func RandomWord(alphabet []string, length int, seed uint64) []string {
	if len(alphabet) == 0 {
		return nil
	}
	w := make([]string, length)
	x := seed
	for i := range w {
		// xorshift64*
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		w[i] = alphabet[(x*2685821657736338717)%uint64(len(alphabet))]
	}
	return w
}
