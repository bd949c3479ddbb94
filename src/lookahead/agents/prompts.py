"""Prompt template loading.

Templates are plain text assets shipped with the package under
``lookahead/prompts``, keyed by environment name and role
(``<environment>__<role>.txt``).  They are ordinary editable files;
placeholders use ``str.format`` syntax.
"""

from __future__ import annotations

from importlib import resources

from ..core import ConfigError


def load_template(environment: str, role: str) -> str:
    filename = f"{environment}__{role}.txt"
    try:
        return (
            resources.files("lookahead").joinpath("prompts", filename).read_text("utf-8")
        )
    except FileNotFoundError:
        raise ConfigError(
            f"no prompt template for environment {environment!r}, role {role!r} "
            f"(expected asset {filename})"
        ) from None


def render_template(template: str, **variables: str) -> str:
    try:
        return template.format(**variables)
    except KeyError as exc:
        raise ConfigError(f"prompt template placeholder {exc} was not supplied") from None
