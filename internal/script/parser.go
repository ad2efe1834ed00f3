package script

import (
	"errors"
	"fmt"
)

// maxNesting bounds how deeply a chunk nests: blocks, expressions inside
// expressions (table constructors, parentheses, unary operators, call
// arguments, function bodies) and the height of operator and call/index
// chains. Every compile stage recurses over the tree, and a goroutine
// stack overflow is fatal, not recoverable — so one hostile shipped script
// could kill its host. The parser counts its own recursion plus the length
// of the chain it is building, which rejects megabyte-deep input after a
// thousand tokens; the resolver then checks the finished tree's height,
// which also covers chains wrapped around nested subtrees.
const maxNesting = 1000

// ErrTooDeep is returned, wrapped in a *SyntaxError, for a chunk that nests
// deeper than maxNesting.
var ErrTooDeep = errors.New("script: nesting exceeds depth limit")

// parser builds an AST from tokens using recursive descent with standard
// Lua operator precedences.
type parser struct {
	chunk string
	lex   *lexer
	tok   token // current token
	ahead *token
	depth int // blocks and expressions being parsed (see maxNesting)
}

// parseChunk compiles source text into a block.
func parseChunk(chunkName, src string) (*blockStmt, error) {
	p := &parser{chunk: chunkName, lex: newLexer(chunkName, src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	block, err := p.block()
	if err != nil {
		return nil, err
	}
	if p.tok.typ != tokEOF {
		return nil, p.errf("unexpected %s", p.tok.typ)
	}
	return block, nil
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Chunk: p.chunk, Line: p.tok.line, Msg: fmt.Sprintf(format, args...)}
}

// enter descends one nesting level; the caller defers p.leave.
func (p *parser) enter() error {
	p.depth++
	return p.checkDepth(0)
}

func (p *parser) leave() { p.depth-- }

// checkDepth fails once the current depth plus a chain of n nodes being
// built at this level exceeds maxNesting.
func (p *parser) checkDepth(n int) error {
	if p.depth+n > maxNesting {
		return &SyntaxError{Chunk: p.chunk, Line: p.tok.line, Msg: ErrTooDeep.Error(), Err: ErrTooDeep}
	}
	return nil
}

func (p *parser) advance() error {
	if p.ahead != nil {
		p.tok = *p.ahead
		p.ahead = nil
		return nil
	}
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) peek() (token, error) {
	if p.ahead == nil {
		t, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.ahead = &t
	}
	return *p.ahead, nil
}

func (p *parser) expect(tt tokenType) (token, error) {
	if p.tok.typ != tt {
		return token{}, p.errf("expected %s, found %s", tt, p.tok.typ)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) accept(tt tokenType) (bool, error) {
	if p.tok.typ != tt {
		return false, nil
	}
	return true, p.advance()
}

// blockEnd reports whether the current token terminates a block.
func (p *parser) blockEnd() bool {
	switch p.tok.typ {
	case tokEOF, tokEnd, tokElse, tokElseif, tokUntil:
		return true
	default:
		return false
	}
}

func (p *parser) block() (*blockStmt, error) {
	defer p.leave()
	if err := p.enter(); err != nil {
		return nil, err
	}
	b := &blockStmt{base: base{p.tok.line}}
	for !p.blockEnd() {
		if ok, err := p.accept(tokSemi); err != nil {
			return nil, err
		} else if ok {
			continue
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		b.stmts = append(b.stmts, s)
		// return must be the last statement of a block.
		if _, isRet := s.(*returnStmt); isRet {
			_, err := p.accept(tokSemi)
			if err != nil {
				return nil, err
			}
			break
		}
	}
	return b, nil
}

func (p *parser) statement() (stmt, error) {
	line := p.tok.line
	switch p.tok.typ {
	case tokIf:
		return p.ifStatement()
	case tokWhile:
		if err := p.advance(); err != nil {
			return nil, err
		}
		cond, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokDo); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEnd); err != nil {
			return nil, err
		}
		return &whileStmt{base: base{line}, cond: cond, body: body}, nil
	case tokRepeat:
		if err := p.advance(); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokUntil); err != nil {
			return nil, err
		}
		cond, err := p.expression()
		if err != nil {
			return nil, err
		}
		return &repeatStmt{base: base{line}, body: body, cond: cond}, nil
	case tokDo:
		if err := p.advance(); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEnd); err != nil {
			return nil, err
		}
		return body, nil
	case tokFor:
		return p.forStatement()
	case tokReturn:
		if err := p.advance(); err != nil {
			return nil, err
		}
		ret := &returnStmt{base: base{line}}
		if !p.blockEnd() && p.tok.typ != tokSemi {
			exprs, err := p.exprList()
			if err != nil {
				return nil, err
			}
			ret.exprs = exprs
		}
		return ret, nil
	case tokBreak:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &breakStmt{base: base{line}}, nil
	case tokLocal:
		return p.localStatement()
	case tokFunction:
		return p.functionStatement()
	default:
		return p.exprStatement()
	}
}

func (p *parser) ifStatement() (stmt, error) {
	line := p.tok.line
	if err := p.advance(); err != nil { // if / elseif
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokThen); err != nil {
		return nil, err
	}
	thenBlock, err := p.block()
	if err != nil {
		return nil, err
	}
	s := &ifStmt{base: base{line}, cond: cond, thenBlock: thenBlock}
	switch p.tok.typ {
	case tokElseif:
		inner, err := p.ifStatement() // consumes through matching end
		if err != nil {
			return nil, err
		}
		s.elseBlock = &blockStmt{base: base{p.tok.line}, stmts: []stmt{inner}}
		return s, nil
	case tokElse:
		if err := p.advance(); err != nil {
			return nil, err
		}
		elseBlock, err := p.block()
		if err != nil {
			return nil, err
		}
		s.elseBlock = elseBlock
		if _, err := p.expect(tokEnd); err != nil {
			return nil, err
		}
		return s, nil
	default:
		if _, err := p.expect(tokEnd); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (p *parser) forStatement() (stmt, error) {
	line := p.tok.line
	if err := p.advance(); err != nil {
		return nil, err
	}
	first, err := p.expect(tokName)
	if err != nil {
		return nil, err
	}
	if p.tok.typ == tokAssign {
		// Numeric for.
		if err := p.advance(); err != nil {
			return nil, err
		}
		start, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
		limit, err := p.expression()
		if err != nil {
			return nil, err
		}
		var step expr
		if ok, err := p.accept(tokComma); err != nil {
			return nil, err
		} else if ok {
			if step, err = p.expression(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tokDo); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEnd); err != nil {
			return nil, err
		}
		return &numForStmt{base: base{line}, name: first.text, start: start, limit: limit, step: step, body: body}, nil
	}
	// Generic for.
	names := []string{first.text}
	for p.tok.typ == tokComma {
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.expect(tokName)
		if err != nil {
			return nil, err
		}
		names = append(names, n.text)
	}
	if _, err := p.expect(tokIn); err != nil {
		return nil, err
	}
	exprs, err := p.exprList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokDo); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokEnd); err != nil {
		return nil, err
	}
	return &genForStmt{base: base{line}, names: names, exprs: exprs, body: body}, nil
}

func (p *parser) localStatement() (stmt, error) {
	line := p.tok.line
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.typ == tokFunction {
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expect(tokName)
		if err != nil {
			return nil, err
		}
		fn, err := p.functionBody(name.text, false, line)
		if err != nil {
			return nil, err
		}
		return &localFuncStmt{base: base{line}, name: name.text, fn: fn}, nil
	}
	var names []string
	n, err := p.expect(tokName)
	if err != nil {
		return nil, err
	}
	names = append(names, n.text)
	for p.tok.typ == tokComma {
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.expect(tokName)
		if err != nil {
			return nil, err
		}
		names = append(names, n.text)
	}
	s := &localStmt{base: base{line}, names: names}
	if ok, err := p.accept(tokAssign); err != nil {
		return nil, err
	} else if ok {
		if s.exprs, err = p.exprList(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) functionStatement() (stmt, error) {
	line := p.tok.line
	if err := p.advance(); err != nil {
		return nil, err
	}
	name, err := p.expect(tokName)
	if err != nil {
		return nil, err
	}
	var target expr = &nameExpr{base: base{line}, name: name.text}
	fullName := name.text
	isMethod := false
	for {
		if ok, err := p.accept(tokDot); err != nil {
			return nil, err
		} else if ok {
			field, err := p.expect(tokName)
			if err != nil {
				return nil, err
			}
			target = &indexExpr{base: base{line}, obj: target, key: &stringExpr{base: base{line}, val: field.text}}
			fullName += "." + field.text
			continue
		}
		break
	}
	if ok, err := p.accept(tokColon); err != nil {
		return nil, err
	} else if ok {
		field, err := p.expect(tokName)
		if err != nil {
			return nil, err
		}
		target = &indexExpr{base: base{line}, obj: target, key: &stringExpr{base: base{line}, val: field.text}}
		fullName += ":" + field.text
		isMethod = true
	}
	fn, err := p.functionBody(fullName, isMethod, line)
	if err != nil {
		return nil, err
	}
	return &funcStmt{base: base{line}, target: target, isMethod: isMethod, fn: fn}, nil
}

// functionBody parses "(params) block end"; isMethod prepends self.
func (p *parser) functionBody(name string, isMethod bool, line int) (*funcExpr, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	fn := &funcExpr{base: base{line}, name: name}
	if isMethod {
		fn.params = append(fn.params, "self")
	}
	for p.tok.typ != tokRParen {
		if p.tok.typ == tokEllipsis {
			fn.isVararg = true
			if err := p.advance(); err != nil {
				return nil, err
			}
			break
		}
		n, err := p.expect(tokName)
		if err != nil {
			return nil, err
		}
		fn.params = append(fn.params, n.text)
		if ok, err := p.accept(tokComma); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokEnd); err != nil {
		return nil, err
	}
	fn.body = body
	return fn, nil
}

// exprStatement handles assignments and call statements, which both begin
// with a suffixed expression.
func (p *parser) exprStatement() (stmt, error) {
	line := p.tok.line
	e, err := p.suffixedExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.typ == tokAssign || p.tok.typ == tokComma {
		targets := []expr{e}
		for p.tok.typ == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			t, err := p.suffixedExpr()
			if err != nil {
				return nil, err
			}
			targets = append(targets, t)
		}
		for _, t := range targets {
			switch t.(type) {
			case *nameExpr, *indexExpr:
			default:
				return nil, p.errf("cannot assign to this expression")
			}
		}
		if _, err := p.expect(tokAssign); err != nil {
			return nil, err
		}
		exprs, err := p.exprList()
		if err != nil {
			return nil, err
		}
		return &assignStmt{base: base{line}, targets: targets, exprs: exprs}, nil
	}
	switch e.(type) {
	case *callExpr, *methodCallExpr:
		return &exprStmt{base: base{line}, call: e}, nil
	default:
		return nil, p.errf("syntax error: expression is not a statement")
	}
}

func (p *parser) exprList() ([]expr, error) {
	var out []expr
	e, err := p.expression()
	if err != nil {
		return nil, err
	}
	out = append(out, e)
	for p.tok.typ == tokComma {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// Operator precedence, mirroring Lua 5.x.
var binPrec = map[tokenType][2]int{ // left, right binding power
	tokOr:  {1, 1},
	tokAnd: {2, 2},
	tokLt:  {3, 3}, tokGt: {3, 3}, tokLe: {3, 3}, tokGe: {3, 3}, tokNe: {3, 3}, tokEq: {3, 3},
	tokConcat: {9, 8}, // right associative
	tokPlus:   {10, 10}, tokMinus: {10, 10},
	tokStar: {11, 11}, tokSlash: {11, 11}, tokPercent: {11, 11},
	tokCaret: {14, 13}, // right associative
}

const unaryPrec = 12

func (p *parser) expression() (expr, error) { return p.binExpr(0) }

func (p *parser) binExpr(limit int) (expr, error) {
	defer p.leave()
	if err := p.enter(); err != nil {
		return nil, err
	}
	var lhs expr
	var err error
	line := p.tok.line
	switch p.tok.typ {
	case tokNot, tokMinus, tokHash:
		op := p.tok.typ
		if err := p.advance(); err != nil {
			return nil, err
		}
		operand, err := p.binExpr(unaryPrec)
		if err != nil {
			return nil, err
		}
		lhs = &unExpr{base: base{line}, op: op, e: operand}
	default:
		lhs, err = p.simpleExpr()
		if err != nil {
			return nil, err
		}
	}
	for n := 1; ; n++ {
		prec, ok := binPrec[p.tok.typ]
		if !ok || prec[0] <= limit {
			return lhs, nil
		}
		if err := p.checkDepth(n); err != nil {
			return nil, err
		}
		op := p.tok.typ
		opLine := p.tok.line
		if err := p.advance(); err != nil {
			return nil, err
		}
		rhs, err := p.binExpr(prec[1])
		if err != nil {
			return nil, err
		}
		lhs = &binExpr{base: base{opLine}, op: op, lhs: lhs, rhs: rhs}
	}
}

func (p *parser) simpleExpr() (expr, error) {
	line := p.tok.line
	switch p.tok.typ {
	case tokNil:
		return &nilExpr{base{line}}, p.advance()
	case tokTrue:
		return &boolExpr{base: base{line}, val: true}, p.advance()
	case tokFalse:
		return &boolExpr{base: base{line}, val: false}, p.advance()
	case tokNumber:
		n := p.tok.num
		return &numberExpr{base: base{line}, val: n}, p.advance()
	case tokString:
		s := p.tok.text
		return &stringExpr{base: base{line}, val: s}, p.advance()
	case tokEllipsis:
		return &varargExpr{base{line}}, p.advance()
	case tokFunction:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.functionBody("", false, line)
	case tokLBrace:
		return p.tableConstructor()
	default:
		return p.suffixedExpr()
	}
}

// suffixedExpr parses a primary expression followed by indexing and call
// suffixes: name, (expr), a.b, a[k], f(args), obj:m(args).
func (p *parser) suffixedExpr() (expr, error) {
	line := p.tok.line
	var e expr
	switch p.tok.typ {
	case tokName:
		e = &nameExpr{base: base{line}, name: p.tok.text}
		if err := p.advance(); err != nil {
			return nil, err
		}
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		// Parenthesised expressions truncate multi-values to one; wrap in a
		// marker via unExpr with tokLParen? Simpler: paren node not needed
		// because our evaluator already yields single values except calls
		// in tail position; a paren around a call must truncate. Use a
		// dedicated wrapper.
		e = &parenExpr{base: base{line}, e: inner}
	default:
		return nil, p.errf("unexpected %s", p.tok.typ)
	}
	for n := 0; ; n++ {
		if err := p.checkDepth(n); err != nil {
			return nil, err
		}
		switch p.tok.typ {
		case tokDot:
			if err := p.advance(); err != nil {
				return nil, err
			}
			name, err := p.expect(tokName)
			if err != nil {
				return nil, err
			}
			e = &indexExpr{base: base{name.line}, obj: e, key: &stringExpr{base: base{name.line}, val: name.text}}
		case tokLBracket:
			if err := p.advance(); err != nil {
				return nil, err
			}
			key, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
			e = &indexExpr{base: base{line}, obj: e, key: key}
		case tokColon:
			if err := p.advance(); err != nil {
				return nil, err
			}
			name, err := p.expect(tokName)
			if err != nil {
				return nil, err
			}
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			e = &methodCallExpr{base: base{name.line}, obj: e, name: name.text, args: args}
		case tokLParen, tokString, tokLBrace:
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			e = &callExpr{base: base{p.tok.line}, fn: e, args: args}
		default:
			return e, nil
		}
	}
}

// callArgs parses (explist), "string", or {table} call forms.
func (p *parser) callArgs() ([]expr, error) {
	switch p.tok.typ {
	case tokString:
		s := &stringExpr{base: base{p.tok.line}, val: p.tok.text}
		return []expr{s}, p.advance()
	case tokLBrace:
		t, err := p.tableConstructor()
		if err != nil {
			return nil, err
		}
		return []expr{t}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if ok, err := p.accept(tokRParen); err != nil {
			return nil, err
		} else if ok {
			return nil, nil
		}
		args, err := p.exprList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return args, nil
	default:
		return nil, p.errf("expected arguments, found %s", p.tok.typ)
	}
}

func (p *parser) tableConstructor() (expr, error) {
	line := p.tok.line
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	t := &tableExpr{base: base{line}}
	for p.tok.typ != tokRBrace {
		switch {
		case p.tok.typ == tokLBracket:
			if err := p.advance(); err != nil {
				return nil, err
			}
			key, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokAssign); err != nil {
				return nil, err
			}
			val, err := p.expression()
			if err != nil {
				return nil, err
			}
			t.keys = append(t.keys, key)
			t.vals = append(t.vals, val)
		case p.tok.typ == tokName:
			// Could be name=expr or a plain expression starting with a name.
			ahead, err := p.peek()
			if err != nil {
				return nil, err
			}
			if ahead.typ == tokAssign {
				keyLine := p.tok.line
				key := &stringExpr{base: base{keyLine}, val: p.tok.text}
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.advance(); err != nil { // consume '='
					return nil, err
				}
				val, err := p.expression()
				if err != nil {
					return nil, err
				}
				t.keys = append(t.keys, key)
				t.vals = append(t.vals, val)
			} else {
				val, err := p.expression()
				if err != nil {
					return nil, err
				}
				t.arrayItems = append(t.arrayItems, val)
			}
		default:
			val, err := p.expression()
			if err != nil {
				return nil, err
			}
			t.arrayItems = append(t.arrayItems, val)
		}
		if p.tok.typ == tokComma || p.tok.typ == tokSemi {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return t, nil
}

// parenExpr truncates a multi-value expression to a single value.
type parenExpr struct {
	base
	e expr
}

func (*parenExpr) exprNode() {}
