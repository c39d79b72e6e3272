"""A small Tcl-subset interpreter for cluster configuration scripts.

The paper configures XDAQ from Tcl on the primary host.  We implement
the subset the control scripts in this repository use, with faithful
Tcl semantics for the parts we cover:

* command lines split on whitespace/newlines/semicolons;
* ``{braces}`` group words verbatim (no substitution);
* ``"quotes"`` group with substitution;
* ``$var`` / ``${var}`` variable substitution;
* ``[command]`` command substitution;
* ``#`` comments at command position;
* built-ins: ``set``, ``puts``, ``foreach``, ``catch``;
* host applications (:mod:`repro.config.control`) register additional
  commands — ``connect``, ``module``, ``param``, ``enable`` ... — with
  :meth:`TclInterp.register`, which is exactly the extension mechanism
  the paper relies on ("In principle, however, we can choose any
  configuration language, as long as we follow I2O message format").

Values are strings, as in Tcl.  There is no ``expr``, no conditionals
and no procedures: a script that needs them registers a command.
"""

from __future__ import annotations

from typing import Callable

from repro.i2o.errors import I2OError


class TclError(I2OError):
    """Script error (syntax, unknown command, bad arity...)."""


Command = Callable[["TclInterp", list[str]], str]


class TclInterp:
    """One interpreter instance: variables and commands."""

    def __init__(self) -> None:
        self.globals: dict[str, str] = {}
        self.commands: dict[str, Command] = {
            "set": _cmd_set,
            "puts": _cmd_puts,
            "foreach": _cmd_foreach,
            "catch": _cmd_catch,
        }
        self.output: list[str] = []  # captured puts lines

    # -- public API -----------------------------------------------------------
    def register(self, name: str, fn: Command) -> None:
        self.commands[name] = fn

    def run(self, script: str) -> str:
        """Execute a script; returns the result of the last command."""
        result = ""
        for words in self._parse_commands(script):
            if not words:
                continue
            result = self._invoke(words)
        return result

    # -- variables ----------------------------------------------------------
    def get_var(self, name: str) -> str:
        if name in self.globals:
            return self.globals[name]
        raise TclError(f'can\'t read "{name}": no such variable')

    def set_var(self, name: str, value: str) -> str:
        self.globals[name] = value
        return value

    # -- parsing --------------------------------------------------------------
    def _parse_commands(self, script: str):
        """Yield word lists, one per command."""
        i, n = 0, len(script)
        while i < n:
            # Skip leading whitespace and command separators.
            while i < n and script[i] in " \t\r\n;":
                i += 1
            if i >= n:
                return
            if script[i] == "#":
                while i < n and script[i] != "\n":
                    i += 1
                continue
            words: list[str] = []
            while i < n and script[i] not in "\n;":
                while i < n and script[i] in " \t\r":
                    i += 1
                if i >= n or script[i] in "\n;":
                    break
                word, i = self._parse_word(script, i)
                words.append(word)
            yield words

    def _parse_word(self, text: str, i: int) -> tuple[str, int]:
        if text[i] == "{":
            raw, i = self._read_braced(text, i)
            return raw, i
        if text[i] == '"':
            raw, i = self._read_quoted(text, i)
            return self.substitute(raw), i
        start = i
        n = len(text)
        depth = 0
        while i < n:
            c = text[i]
            if c == "[":
                depth += 1
            elif c == "]" and depth > 0:
                depth -= 1
            elif depth == 0 and c in " \t\r\n;":
                break
            i += 1
        return self.substitute(text[start:i]), i

    @staticmethod
    def _read_braced(text: str, i: int) -> tuple[str, int]:
        if text[i] != "{":
            raise TclError("internal: expected brace")
        depth = 0
        start = i + 1
        n = len(text)
        while i < n:
            c = text[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    return text[start:i], i + 1
            elif c == "\\" and i + 1 < n:
                i += 1
            i += 1
        raise TclError("missing close-brace")

    @staticmethod
    def _read_quoted(text: str, i: int) -> tuple[str, int]:
        start = i + 1
        i += 1
        n = len(text)
        while i < n:
            if text[i] == "\\" and i + 1 < n:
                i += 2
                continue
            if text[i] == '"':
                return text[start:i], i + 1
            i += 1
        raise TclError("missing close-quote")

    def substitute(self, text: str) -> str:
        """Perform $var and [cmd] substitution on ``text``."""
        out: list[str] = []
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c == "\\" and i + 1 < n:
                escapes = {"n": "\n", "t": "\t", "\\": "\\", "$": "$", "[": "[",
                           "]": "]", '"': '"'}
                out.append(escapes.get(text[i + 1], text[i + 1]))
                i += 2
            elif c == "$":
                name, i = self._read_varname(text, i)
                out.append(self.get_var(name))
            elif c == "[":
                depth = 1
                j = i + 1
                while j < n and depth:
                    if text[j] == "[":
                        depth += 1
                    elif text[j] == "]":
                        depth -= 1
                    j += 1
                if depth:
                    raise TclError("missing close-bracket")
                out.append(self.run(text[i + 1 : j - 1]))
                i = j
            else:
                out.append(c)
                i += 1
        return "".join(out)

    def _read_varname(self, text: str, i: int) -> tuple[str, int]:
        i += 1  # skip $
        n = len(text)
        if i < n and text[i] == "{":
            j = text.find("}", i)
            if j < 0:
                raise TclError("missing close-brace in ${...}")
            return text[i + 1 : j], j + 1
        start = i
        while i < n and (text[i].isalnum() or text[i] in "_:"):
            i += 1
        if start == i:
            raise TclError("lone $ in substitution")
        return text[start:i], i

    # -- invocation ------------------------------------------------------------
    def _invoke(self, words: list[str]) -> str:
        name = words[0]
        cmd = self.commands.get(name)
        if cmd is None:
            raise TclError(f'invalid command name "{name}"')
        return cmd(self, words[1:])


# --- list helpers (Tcl lists are whitespace-separated with braces) -----------


def parse_list(text: str) -> list[str]:
    interp_free = []
    i, n = 0, len(text)
    while i < n:
        while i < n and text[i] in " \t\r\n":
            i += 1
        if i >= n:
            break
        if text[i] == "{":
            word, i = TclInterp._read_braced(text, i)
        else:
            start = i
            while i < n and text[i] not in " \t\r\n":
                i += 1
            word = text[start:i]
        interp_free.append(word)
    return interp_free


def format_list(items: list[str]) -> str:
    out = []
    for item in items:
        if item == "" or any(c in item for c in " \t\r\n{}"):
            out.append("{" + item + "}")
        else:
            out.append(item)
    return " ".join(out)


# --- built-in commands ---------------------------------------------------------


def _arity(args: list[str], low: int, high: int, usage: str) -> None:
    if not low <= len(args) <= high:
        raise TclError(f'wrong # args: should be "{usage}"')


def _cmd_set(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 1, 2, "set varName ?newValue?")
    if len(args) == 1:
        return interp.get_var(args[0])
    return interp.set_var(args[0], args[1])


def _cmd_puts(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 1, 2, "puts ?-nonewline? string")
    text = args[-1]
    interp.output.append(text)
    return ""


def _cmd_foreach(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 3, 3, "foreach varName list command")
    result = ""
    for item in parse_list(args[1]):
        interp.set_var(args[0], item)
        result = interp.run(args[2])
    return result


def _cmd_catch(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 1, 2, "catch command ?varName?")
    try:
        result = interp.run(args[0])
    except I2OError as exc:
        if len(args) == 2:
            interp.set_var(args[1], str(exc))
        return "1"
    if len(args) == 2:
        interp.set_var(args[1], result)
    return "0"
