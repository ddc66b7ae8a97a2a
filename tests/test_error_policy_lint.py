"""The error-policy rules (ERR001–ERR003) of ``repro.lint``.

The lint enforces the robustness contract of docs/robustness.md: no
bare ``except:``, no swallowing ``except Exception`` without a
re-raise, and no raw ``raise ValueError`` outside the exception /
validation modules. Each case runs :class:`ErrorTaxonomyPass` alone,
on a seeded snippet or on the shipped tree.
"""

from __future__ import annotations

import textwrap

from repro.lint import LintConfig, PassManager, load_project, run_lint
from repro.lint.passes import ErrorTaxonomyPass


def _findings(source: str, tmp_path, name="mod.py"):
    (tmp_path / name).write_text(textwrap.dedent(source))
    project = load_project(tmp_path, repo_root=tmp_path)
    manager = PassManager(passes=(ErrorTaxonomyPass(),), config=LintConfig())
    return manager.run(project).findings


def test_src_tree_is_clean():
    assert run_lint(passes=(ErrorTaxonomyPass(),)).findings == ()


def test_lint_flags_bare_except(tmp_path):
    out = _findings("""
        try:
            x = 1
        except:
            pass
    """, tmp_path)
    assert [f.rule for f in out] == ["ERR001"]
    assert "bare 'except:'" in out[0].message


def test_lint_flags_swallowed_exception(tmp_path):
    out = _findings("""
        try:
            x = 1
        except Exception:
            x = 2
    """, tmp_path)
    assert [f.rule for f in out] == ["ERR002"]
    assert "without a re-raise" in out[0].message


def test_lint_allows_capture_reraise_pattern(tmp_path):
    out = _findings("""
        try:
            x = 1
        except Exception as exc:
            if not log.capture(exc):
                raise
    """, tmp_path)
    assert out == ()


def test_lint_flags_raw_value_error(tmp_path):
    out = _findings("""
        def f(x):
            if x < 0:
                raise ValueError("no")
    """, tmp_path)
    assert [f.rule for f in out] == ["ERR003"]
    assert "raise ValueError" in out[0].message


def test_lint_allows_domain_error(tmp_path):
    out = _findings("""
        from repro.errors import DomainError
        def f(x):
            if x < 0:
                raise DomainError("no")
    """, tmp_path)
    assert out == ()


def test_lint_exempts_errors_and_validation_modules(tmp_path):
    # The defining/validating modules may raise builtins; any other
    # module raising the same thing is flagged.
    source = "raise ValueError('builtin')\n"
    for name in ("errors.py", "validation.py"):
        assert name in LintConfig().error_exempt_modules
        assert _findings(source, tmp_path, name) == ()
        (tmp_path / name).unlink()
    assert [f.rule for f in _findings(source, tmp_path, "other.py")] == \
        ["ERR003"]
