package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/value"
)

// Parse parses the textual expression form produced by Expr.String (and
// written by hand in queries): SQL-ish conditions with AND/OR/NOT (also
// &&, ||, !), comparisons (= == != <> < <= > >=), IN lists, BETWEEN,
// arithmetic (+ - * / %), qualified column references (F.NumBytes),
// integer/float/string literals, and parentheses.
func Parse(input string) (Expr, error) {
	p := NewParser(input)
	e, err := p.Expr()
	if err != nil {
		return nil, err
	}
	if err := p.Done(); err != nil {
		return nil, err
	}
	return e, nil
}

// MustParse is Parse but panics on error; for tests and literals.
func MustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

// Parser reads the query language one token at a time. Parse reads one
// expression with it; grammars that embed expressions (aggregate specs,
// SQL statements) read their own words and punctuation around Expr with
// it, so the language has one lexer. Tokens are lexed on demand, two
// ahead at most.
type Parser struct {
	src  string
	off  int      // where the token after the lookahead starts
	look [2]token // the lookahead, look[:n]
	n    int
	err  error // the lexer's error: every later token is tokErr
}

// NewParser returns a parser at the start of src.
func NewParser(src string) *Parser { return &Parser{src: src} }

type tokKind int

const (
	tokEOF tokKind = iota
	tokErr         // the input does not lex past here; Parser.err says why
	tokIdent
	tokNumber
	tokString
	tokOp      // punctuation operators
	tokKeyword // AND OR NOT IN BETWEEN TRUE FALSE NULL CASE WHEN THEN ELSE END LIKE
)

type token struct {
	kind tokKind
	text string // a keyword's canonical spelling, a string's value
	pos  int
}

// keywords are the expression keywords in their canonical spelling.
var keywords = [...]string{
	"AND", "OR", "NOT", "IN", "BETWEEN", "TRUE", "FALSE", "NULL",
	"CASE", "WHEN", "THEN", "ELSE", "END", "LIKE",
}

// lex reads the token at p.off.
func (p *Parser) lex() token {
	s, i := p.src, p.off
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	p.off = i
	switch {
	case p.err != nil:
		return token{tokErr, "", i}
	case i == len(s):
		return token{tokEOF, "", i}
	}
	start, c := i, s[i]
	t := token{pos: start}
	switch {
	case c == '\'':
		escaped := false
		for i++; ; i++ {
			if i >= len(s) {
				p.err = errorf("parse %q: unterminated string at offset %d", s, start)
				return token{tokErr, "", start}
			}
			if s[i] == '\'' {
				if i+1 < len(s) && s[i+1] == '\'' {
					escaped = true
					i++
					continue
				}
				break
			}
		}
		i++
		t.kind, t.text = tokString, s[start+1:i-1]
		if escaped {
			t.text = strings.ReplaceAll(t.text, "''", "'")
		}
	case c >= '0' && c <= '9' || c == '.' && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9':
		for i < len(s) && (s[i] >= '0' && s[i] <= '9' || s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
			(s[i] == '+' || s[i] == '-') && i > start && (s[i-1] == 'e' || s[i-1] == 'E')) {
			i++
		}
		t.kind, t.text = tokNumber, s[start:i]
	case isIdentStart(rune(c)):
		for i < len(s) && isIdentPart(rune(s[i])) {
			i++
		}
		t.kind, t.text = tokIdent, s[start:i]
		for _, kw := range keywords {
			if len(kw) == len(t.text) && strings.EqualFold(kw, t.text) {
				t.kind, t.text = tokKeyword, kw
				break
			}
		}
	default:
		t.kind, t.text = tokOp, ""
		if i+1 < len(s) {
			switch two := s[i : i+2]; two {
			case "&&":
				t.kind, t.text = tokKeyword, "AND"
			case "||":
				t.kind, t.text = tokKeyword, "OR"
			case "==":
				t.text = "="
			case "<>":
				t.text = "!="
			case "!=", "<=", ">=", "->":
				t.text = two
			}
		}
		if t.text != "" {
			i += 2
			break
		}
		switch c {
		case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', '.', ';':
			t.text = s[i : i+1]
		case '!':
			t.kind, t.text = tokKeyword, "NOT"
		default:
			p.err = errorf("parse %q: unexpected character %q at offset %d", s, string(c), i)
			return token{tokErr, "", i}
		}
		i++
	}
	p.off = i
	return t
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (p *Parser) peek() token {
	if p.n == 0 {
		p.look[0], p.n = p.lex(), 1
	}
	return p.look[0]
}

func (p *Parser) peek2() token {
	p.peek()
	if p.n == 1 {
		p.look[1], p.n = p.lex(), 2
	}
	return p.look[1]
}

func (p *Parser) next() token {
	t := p.peek()
	p.look[0] = p.look[1]
	p.n--
	return t
}

func (p *Parser) accept(kind tokKind, text string) bool {
	if t := p.peek(); t.kind == kind && t.text == text {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(kind tokKind, text string) error {
	if !p.accept(kind, text) {
		return p.Errorf("expr: parse %q: expected %q", p.src, text)
	}
	return nil
}

// fail is an error of the expression grammar: the lexer's, if the input
// stopped lexing, else the formatted one.
func (p *Parser) fail(format string, args ...any) error {
	if p.err != nil {
		return p.err
	}
	return errorf("parse %q: "+format, append([]any{p.src}, args...)...)
}

// Expr reads one expression. It stops before the first token that cannot
// continue it: the end of input, a closing parenthesis or comma of the
// enclosing grammar, or a word such as AS, FROM or GROUP.
func (p *Parser) Expr() (Expr, error) { return p.parseOr() }

// Word consumes the next token if it is the identifier word, in any case,
// and reports whether it did. A grammar's clause words (AS, FROM,
// GROUP ...) are identifiers to the expression language.
func (p *Parser) Word(word string) bool {
	if t := p.peek(); t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.next()
		return true
	}
	return false
}

// Ident consumes the next token if it is an identifier and returns its
// text.
func (p *Parser) Ident() (string, bool) {
	if t := p.peek(); t.kind == tokIdent {
		p.next()
		return t.text, true
	}
	return "", false
}

// AtCall reports whether the next tokens are a name and an opening
// parenthesis: a function call.
func (p *Parser) AtCall() bool {
	t := p.peek2()
	return p.look[0].kind == tokIdent && t.kind == tokOp && t.text == "("
}

// Op consumes the next token if it is the punctuation op (one of
// = != < <= > >= + - * / % ( ) , . ; ->) and reports whether it did.
func (p *Parser) Op(op string) bool { return p.accept(tokOp, op) }

// Int consumes the next token if it is an integer literal and returns its
// value.
func (p *Parser) Int() (int64, bool) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, false
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, false
	}
	p.next()
	return n, true
}

// Pos returns the offset of the next token, or the input's length at its
// end.
func (p *Parser) Pos() int { return p.peek().pos }

// Text returns the input between two offsets.
func (p *Parser) Text(from, to int) string { return p.src[from:to] }

// Done returns an error unless the whole input has been read.
func (p *Parser) Done() error {
	if p.peek().kind == tokEOF {
		return nil
	}
	return p.Errorf("expr: parse %q: expected end of input", p.src)
}

// Errorf returns an error at the next token: the lexer's error if the
// input stopped lexing there, else the formatted message followed by the
// token found and its offset.
func (p *Parser) Errorf(format string, args ...any) error {
	t := p.peek()
	switch {
	case p.err != nil:
		return p.err
	case t.kind == tokEOF:
		return fmt.Errorf(format+", found end of input", args...)
	}
	return fmt.Errorf(format+", found %q at offset %d", append(args, t.text, t.pos)...)
}

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Unary{Op: "NOT", X: x}, nil
	}
	return p.parseCmp()
}

func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	neg := false
	if t := p.peek(); t.kind == tokKeyword && t.text == "NOT" {
		// lookahead for NOT IN / NOT BETWEEN / NOT LIKE
		if nt := p.peek2(); nt.kind == tokKeyword && (nt.text == "IN" || nt.text == "BETWEEN" || nt.text == "LIKE") {
			p.next()
			neg = true
		}
	}
	if p.accept(tokKeyword, "IN") {
		return p.parseInTail(l, neg)
	}
	if p.accept(tokKeyword, "LIKE") {
		pt := p.next()
		if pt.kind != tokString {
			return nil, p.fail("LIKE needs a string pattern, found %q", pt.text)
		}
		return Like{X: l, Pattern: pt.text, Neg: neg}, nil
	}
	if p.accept(tokKeyword, "BETWEEN") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return Between{X: l, Lo: lo, Hi: hi, Neg: neg}, nil
	}
	if neg {
		return nil, p.fail("NOT must be followed by IN, BETWEEN, or LIKE here")
	}
	if t := p.peek(); t.kind == tokOp {
		switch t.text {
		case "=", "!=", "<", "<=", ">", ">=":
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return Binary{Op: t.text, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *Parser) parseInTail(l Expr, neg bool) (Expr, error) {
	if err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	in := InList{X: l, Neg: neg}
	for {
		e, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		c, ok := constFold(e)
		if !ok {
			return nil, p.fail("IN list elements must be literals")
		}
		in.Vals = append(in.Vals, c)
		if p.accept(tokOp, ",") {
			continue
		}
		if err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return in, nil
	}
}

func (p *Parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "+" || t.text == "-") {
			p.next()
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.accept(tokOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of numeric literals.
		if c, ok := x.(Const); ok && c.Val.K.Numeric() {
			if v, err := value.Neg(c.Val); err == nil {
				return Const{Val: v}, nil
			}
		}
		return Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if i, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			return CInt(i), nil
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.fail("bad number %q at offset %d", t.text, t.pos)
		}
		return Const{Val: value.NewFloat(f)}, nil
	case tokString:
		return Const{Val: value.NewString(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			return Const{Val: value.NewBool(true)}, nil
		case "FALSE":
			return Const{Val: value.NewBool(false)}, nil
		case "NULL":
			return Const{}, nil
		case "CASE":
			return p.parseCaseTail()
		}
		return nil, p.fail("unexpected keyword %q at offset %d", t.text, t.pos)
	case tokIdent:
		if nt := p.peek(); nt.kind == tokOp && nt.text == "(" && IsScalarFunc(t.text) {
			p.next() // consume "("
			return p.parseCallTail(t.text)
		}
		if p.accept(tokOp, ".") {
			nt := p.next()
			if nt.kind != tokIdent {
				return nil, p.fail("expected column name after %q. at offset %d", t.text, nt.pos)
			}
			return Col{Qual: t.text, Name: nt.text}, nil
		}
		return Col{Name: t.text}, nil
	case tokOp:
		if t.text == "(" {
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.fail("unexpected %q at offset %d", t.text, t.pos)
}

// parseCaseTail parses the body of a searched CASE expression after the
// CASE keyword: WHEN cond THEN expr ... [ELSE expr] END.
func (p *Parser) parseCaseTail() (Expr, error) {
	var c Case
	for p.accept(tokKeyword, "WHEN") {
		cond, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokKeyword, "THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, When{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.fail("CASE needs at least one WHEN arm")
	}
	if p.accept(tokKeyword, "ELSE") {
		els, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		c.Else = els
	}
	if err := p.expect(tokKeyword, "END"); err != nil {
		return nil, err
	}
	return c, nil
}

// parseCallTail parses the argument list of a scalar function call after
// the opening parenthesis.
func (p *Parser) parseCallTail(name string) (Expr, error) {
	call := Call{Name: name}
	if p.accept(tokOp, ")") {
		return nil, p.fail("%s() needs arguments", name)
	}
	for {
		arg, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, arg)
		if p.accept(tokOp, ",") {
			continue
		}
		if err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return call, nil
	}
}

// constFold reduces a literal-only expression to its value.
func constFold(e Expr) (value.V, bool) {
	switch n := e.(type) {
	case Const:
		return n.Val, true
	case Unary:
		if n.Op == "-" {
			if c, ok := constFold(n.X); ok {
				if neg, err := value.Neg(c); err == nil {
					return neg, true
				}
			}
		}
	}
	return value.Null, false
}
