package repro.core

import org.scalatest.funsuite.AnyFunSuite
import Ast._

class ParserSpec extends AnyFunSuite {

  private def p(s: String): Node = Parser.parse(s)

  test("single command") {
    assert(p("ls") == Cmd(Lit("ls"), Nil))
  }

  test("command with args") {
    assert(p("grep -v foo") == Cmd(Lit("grep"), List(Lit("-v"), Lit("foo"))))
  }

  test("two-stage pipeline") {
    assert(p("cat f | grep x") ==
      Pipe(List(Cmd(Lit("cat"), List(Lit("f"))), Cmd(Lit("grep"), List(Lit("x"))))))
  }

  test("pipeline associativity is flat") {
    p("a | b | c | d") match {
      case Pipe(stages) => assert(stages.size == 4)
      case other        => fail(s"$other")
    }
  }

  test("semicolon sequencing") {
    assert(p("a ; b") == Semi(Cmd(Lit("a"), Nil), Cmd(Lit("b"), Nil)))
  }

  test("newline acts as semicolon") {
    assert(p("a\nb") == Semi(Cmd(Lit("a"), Nil), Cmd(Lit("b"), Nil)))
  }

  test("&& and || operators") {
    assert(p("a && b") == And(Cmd(Lit("a"), Nil), Cmd(Lit("b"), Nil)))
    assert(p("a || b") == Or(Cmd(Lit("a"), Nil), Cmd(Lit("b"), Nil)))
  }

  test("ampersand parallel composition") {
    assert(p("a & b") == Amp(Cmd(Lit("a"), Nil), Cmd(Lit("b"), Nil)))
  }

  test("trailing ampersand backgrounds last command") {
    assert(p("a &") == Amp(Cmd(Lit("a"), Nil), Noop))
  }

  test("precedence: pipe binds tighter than && which binds tighter than ;") {
    p("a | b && c ; d") match {
      case Semi(And(Pipe(_), Cmd(Lit("c"), _, _)), Cmd(Lit("d"), _, _)) => ()
      case other => fail(s"$other")
    }
  }

  test("redirections") {
    assert(p("sort < in > out") ==
      Cmd(Lit("sort"), Nil, List(RedirIn(Lit("in")), RedirOut(Lit("out")))))
  }

  test("a redirection stays on its own pipeline stage") {
    // the frontend, not the parser, rejects `<` after a pipe
    assert(p("cat a | grep x < b") == Pipe(List(
      Cmd(Lit("cat"), List(Lit("a"))),
      Cmd(Lit("grep"), List(Lit("x")), List(RedirIn(Lit("b")))))))
    assert(p("wc -l > $out") ==
      Cmd(Lit("wc"), List(Lit("-l")), List(RedirOut(VarRef("out")))))
  }

  test("append redirection") {
    // the frontend has only overwriting sinks: `>>` would compile to `>`
    intercept[Parser.ParseError](p("x >> log"))
    intercept[Parser.ParseError](p("cat in.txt >> out.txt"))
  }

  test("compound commands raise instead of parsing as simple commands") {
    List("if true; then cat in.txt; fi",
         "while true; do cat in.txt; done",
         "until false; do ls; done",
         "case x in a) ls ;; esac",
         "function f { ls; }",
         "{ cat in.txt; }",
         "! grep x f",
         "ls; do ls",
         "cat f | if true; then wc; fi").foreach { src =>
      intercept[Parser.ParseError](p(src))
    }
  }

  test("file-descriptor redirections raise; a spaced digit stays an operand") {
    List("grep foo in.txt 2>/dev/null", "sort f 2>&1", "cat 0<in.txt",
         "cat f 1>out", "cat f >&2").foreach { src =>
      intercept[Parser.ParseError](p(src))
    }
    assert(p("head -n 2 >out") ==
      Cmd(Lit("head"), List(Lit("-n"), Lit("2")), List(RedirOut(Lit("out")))))
    assert(p("echo a2>out") == Cmd(Lit("echo"), List(Lit("a2")), List(RedirOut(Lit("out")))))
  }

  test("command substitution raises, quoted or not") {
    List("echo \"$(date)\"", "echo `date`", "echo \"`date`\"", "echo $(date)",
         "diff <(sort a) <(sort b)").foreach { src =>
      intercept[Parser.ParseError](p(src))
    }
    assert(p("echo '$(date)'") == Cmd(Lit("echo"), List(Lit("$(date)"))))
  }

  test("keywords are ordinary words outside command position") {
    assert(p("grep if f") == Cmd(Lit("grep"), List(Lit("if"), Lit("f"))))
  }

  test("single quotes preserve $ literally") {
    assert(p("awk '{print $2}'") == Cmd(Lit("awk"), List(Lit("{print $2}"))))
  }

  test("double quotes expand variables") {
    assert(p("echo \"$x-suffix\"") ==
      Cmd(Lit("echo"), List(Concat(List(VarRef("x"), Lit("-suffix"))))))
  }

  test("unquoted variable concatenation") {
    assert(p("curl $base/$y") ==
      Cmd(Lit("curl"), List(Concat(List(VarRef("base"), Lit("/"), VarRef("y"))))))
  }

  test("braced variable") {
    assert(p("echo ${base}x") == Cmd(Lit("echo"),
      List(Concat(List(VarRef("base"), Lit("x"))))))
  }

  test("assignment") {
    assert(p("x=42") == Assign("x", Lit("42")))
  }

  test("assignment with variable value") {
    p("x=$y/z") match {
      case Assign("x", Concat(List(VarRef("y"), Lit("/z")))) => ()
      case other => fail(s"$other")
    }
  }

  test("for loop with brace range") {
    p("for y in {2015..2017}; do echo $y; done") match {
      case For("y", items, Cmd(Lit("echo"), _, _)) =>
        assert(items == List(Lit("2015"), Lit("2016"), Lit("2017")))
      case other => fail(s"$other")
    }
  }

  test("for loop with explicit items and pipeline body") {
    p("for f in a b; do cat $f | wc -l; done") match {
      case For("f", List(Lit("a"), Lit("b")), Pipe(st)) => assert(st.size == 2)
      case other => fail(s"$other")
    }
  }

  test("subshell") {
    assert(p("( a ; b )") == Subshell(Semi(Cmd(Lit("a"), Nil), Cmd(Lit("b"), Nil))))
  }

  test("comments are skipped") {
    assert(p("# hello\nls # trailing") == Cmd(Lit("ls"), Nil))
  }

  test("escaped characters in words") {
    assert(p("grep foo\\ bar") == Cmd(Lit("grep"), List(Lit("foo bar"))))
  }

  test("double-quoted spaces stay in one word") {
    assert(p("tr -s \" \"") == Cmd(Lit("tr"), List(Lit("-s"), Lit(" "))))
  }

  test("escaped newline continues the line") {
    assert(p("a \\\n b") == Cmd(Lit("a"), List(Lit("b"))))
  }

  test("sed script with semicolon delimiter survives quoting") {
    p("""sed "s;^;prefix/;"""") match {
      case Cmd(Lit("sed"), List(Lit(s)), _) => assert(s == "s;^;prefix/;")
      case other => fail(s"$other")
    }
  }

  test("empty program") {
    assert(p("") == Noop)
    assert(p("\n\n") == Noop)
  }

  test("unterminated quote raises") {
    intercept[Parser.ParseError](p("echo 'oops"))
  }

  test("Fig. 2 NOAA script parses") {
    val ast = p(repro.bench.Scripts.noaa.script)
    ast match {
      case Semi(Assign("base", _), For("y", items, _)) => assert(items.size == 5)
      case other => fail(s"$other")
    }
  }

  test("every evaluation script parses") {
    repro.bench.Scripts.all.foreach { b =>
      Parser.parse(b.script) // must not throw
    }
  }
}
