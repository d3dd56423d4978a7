"""RPL001: broad ``except`` that can swallow contract exceptions.

The flow's control-flow contracts ride on three exceptions:
:class:`repro.bdd.manager.BddBudgetExceeded` (a resource verdict -- the
budgeted verifier and the scheduler's SIGALRM timeout both *depend*
on it propagating), :class:`repro.check.CheckError` (an invariant
violation -- state is corrupt, continuing computes garbage), and
:class:`repro.verify.VerifyError` (a miscompile).  A ``except
Exception:`` / ``except BaseException:`` / bare ``except:`` handler that
neither re-raises nor names these types turns a verdict into silence --
the PR-4 fuzzer found exactly this shape masking budget interrupts as
"crash" findings.

A broad handler passes when any of these hold for *each* guarded name:

* an earlier, narrower ``except`` clause of the same ``try`` already
  catches it (so the broad handler can never see it);
* the handler body references the name (an ``isinstance`` allowlist or
  explicit re-raise of that type);
* the handler body contains a ``raise`` (conservatively accepted:
  re-raising handlers are reporting, not swallowing).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.astutil import exception_names, names_loaded
from repro.lint.config import LintConfig
from repro.lint.finding import Finding
from repro.lint.registry import Rule, register
from repro.lint.runner import SourceModule

_BROAD = {"Exception", "BaseException"}


def _has_raise(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(n, ast.Raise) for stmt in handler.body
               for n in ast.walk(stmt))


@register
class BroadExceptRule(Rule):
    code = "RPL001"
    name = "broad-except-swallows-contract"
    summary = ("broad `except` can swallow BddBudgetExceeded / CheckError /"
               " VerifyError without re-raising")
    rationale = ("budget interrupts, invariant violations and miscompile "
                 "verdicts are control flow; swallowing them silently "
                 "converts a hard verdict into wrong results (seen in the "
                 "fuzz harness before PR 8)")

    def check(self, module: SourceModule,
              config: LintConfig) -> Iterator[Finding]:
        guarded = set(config.guarded_exceptions)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            covered: Set[str] = set()
            for handler in node.handlers:
                names = exception_names(handler.type)
                if handler.type is not None and not (names & _BROAD):
                    covered |= names
                    continue
                # Bare except / Exception / BaseException.
                body_names = set()
                for stmt in handler.body:
                    body_names |= names_loaded(stmt)
                uncovered: List[str] = sorted(
                    guarded - covered - body_names)
                if uncovered and not _has_raise(handler):
                    yield self.finding(
                        module, handler,
                        "broad except can swallow %s; re-raise, narrow the "
                        "clause, or handle them explicitly"
                        % "/".join(uncovered))
                covered |= names
