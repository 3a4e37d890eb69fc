"""Tokenizer for the restricted Micro-C language.

The language is the C-like surface syntax of the paper's Listings 1-2:
integer types, global arrays, functions, if/else, while, and calls to
NIC builtins. Comments are ``//`` and ``/* */``; ``#pragma`` lines
carry placement hints to the compiler (paper D2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .errors import LexError

KEYWORDS = {
    "int", "void", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "if", "else", "while", "return", "break", "continue",
}

#: Multi-character operators, longest first.
OPERATORS = [
    "<<", ">>", "==", "!=", "<=", ">=", "&&", "||",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
    "=", "<", ">", "(", ")", "{", "}", "[", "]", ";", ",", ".",
]


@dataclass(frozen=True)
class Token:
    kind: str       # "ident" | "number" | "keyword" | "op" | "pragma" | "eof"
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r} @{self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Turn Micro-C source into a token list ending with an EOF token."""
    tokens: List[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(source)

    def error(message: str) -> LexError:
        return LexError(message, line, column)

    while index < length:
        char = source[index]
        # Whitespace / newlines.
        if char == "\n":
            index += 1
            line += 1
            column = 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        # Comments.
        if source.startswith("//", index):
            while index < length and source[index] != "\n":
                index += 1
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end < 0:
                raise error("unterminated block comment")
            skipped = source[index:end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            index = end + 2
            continue
        # Pragmas: one line, recorded whole.
        if char == "#" and source.startswith("#pragma", index):
            end = source.find("\n", index)
            if end < 0:
                end = length
            text = source[index + len("#pragma"):end].strip()
            tokens.append(Token("pragma", text, line, column))
            index = end
            continue
        # Numbers (decimal or hex).
        if char.isdigit():
            start = index
            if source.startswith("0x", index) or source.startswith("0X", index):
                index += 2
                while index < length and source[index] in "0123456789abcdefABCDEF":
                    index += 1
            else:
                while index < length and source[index].isdigit():
                    index += 1
            if index < length and (source[index].isalpha() or source[index] == "."):
                if source[index] == "." or source[index] in "eE":
                    raise error("floating-point literals are not supported "
                                "on NPU targets")
                raise error(f"malformed number near {source[start:index + 1]!r}")
            text = source[start:index]
            tokens.append(Token("number", text, line, column))
            column += index - start
            continue
        # Identifiers / keywords.
        if char.isalpha() or char == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[start:index]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, column))
            column += index - start
            continue
        # Operators / punctuation.
        for operator in OPERATORS:
            if source.startswith(operator, index):
                tokens.append(Token("op", operator, line, column))
                index += len(operator)
                column += len(operator)
                break
        else:
            raise error(f"unexpected character {char!r}")

    tokens.append(Token("eof", "", line, column))
    return tokens
