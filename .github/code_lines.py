"""Print the code lines of each module in src/digitrec and their total.

Code lines are the lines that hold a token other than a comment or a
docstring; blank lines hold none. Run from the repository root:

    python .github/code_lines.py
"""

import ast
import glob
import io
import tokenize

blank = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
total = 0
for path in sorted(glob.glob("src/digitrec/*.py")):
    source = open(path, encoding="utf-8").read()
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in blank and not (tok.type == tokenize.STRING
                                          and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    total += len(lines)
    print(f"{len(lines):6d} {path}")
print(f"{total:6d} total")
