"""Pin the top-level exports, the defaulted parameters, the CLI options and the constants.

A defaulted parameter is a setting every caller may change, and each one
doubles the configurations the tests would have to cover.  A setting with
one value in use is a named module constant beside the code that reads it,
read at call time, so a test sets another value by monkeypatching it.  A
parameter keeps a default only when two callers need different values or
when the benchmark hooks in through it (`potential=` and `builder=`).  So
a new option, or a retired one, shows up here as an edit to PINNED, and a
changed setting as an edit to CONSTANTS.  A command-line flag is a setting
too: one added or dropped shows up as an edit to CLI_OPTIONS.  Likewise a
name added to or removed from `polarhull.__all__` shows up as an edit to
EXPORTS.  The docs name constants too, and a name they keep after the code
dropped it shows up in `test_documented_names_resolve`.  A change that grows
the package past its non-blank line count shows up as an edit to
SOURCE_LINES.
"""
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import polarhull
from polarhull import cli

EXPORTS = (
    "__version__",
    "CircleContour", "CompactSample", "Disk", "DiskUnion", "PolarhullError", "PolynomialC",
    "poly_from_roots",
    "ExpReciprocal", "PoleSeries", "RationalModel", "RecipSinPi",
    "laurent_split", "mittag_leffler",
    "capacity_estimate", "leja_points",
    "build_approximant", "convergence_scan", "rho_of",
    "certify_schedule", "export_field", "u_eval",
    "harmonic_measure", "sublevel_cover", "wiener_test",
    "classify_fiber", "series_conditions", "vn_upper_bound",
)

PINNED = {
    "core.PolynomialC.__init__": ("roots",),
    "hull.classify_fiber": ("depth", "potential"),
    "laurent.laurent_split": ("tol",),
    "models.PoleSeries.__init__": ("log_abs_c", "label", "log_gamma_tail", "ca_tail"),
    "models.PoleSeries.gaussian": ("n_terms",),
    "models.PoleSeries.geometric": ("n_terms", "ratio"),
    "models.RecipSinPi.__init__": ("pole_cutoff",),
    "potential.MeasureEstimate.__init__": ("residual",),
    "potential.wiener_test": ("depth",),
    "potential.harmonic_measure": ("obstacles", "walks", "seed", "method"),
    "pshbuild.certify_schedule": ("nu_max", "builder"),
    "ratapprox.build_approximant": ("quad_tol",),
    "ratapprox.convergence_scan": ("quad_tol",),
}

# settings that were parameters, each with the one value every caller used
CONSTANTS = {
    "potential.WOS_SHELL": 1e-4,
    "potential.GRID_N": 321,
    "potential.MAX_WOS_ROUNDS": 200000,
    "pshbuild.DEGREE_CAP": 200,
    "laurent.ML_KMAX": 40,
    "pshbuild.GRID_DENSITY": 10,
    "pshbuild.MAX_NU": 12,
    "core.QUAD_FLOOR_FACTOR": 16,
}

# non-blank lines under src/polarhull: a ceiling, lowered as the package shrinks.
# Lowered from 2410 when one sorted sweep replaced the four offset cell grids
# of the duplicate-point check
SOURCE_LINES = 2409

_COMMON = ("--config", "--out")
CLI_OPTIONS = {
    "decompose": _COMMON + ("--tolerance", "--function", "--center", "--radius", "--kmax"),
    "fekete": _COMMON + ("--function", "--segment", "--m"),
    "approx": _COMMON + ("--tolerance", "--function", "--m", "--n-list", "--target"),
    "psh": _COMMON + ("--function", "--nu-max", "--tube"),
    "thin": _COMMON + ("--function", "--big-r", "--point", "--depth"),
    "hmeasure": _COMMON + ("--annulus", "--at", "--walks", "--method", "--seed"),
    "hull": _COMMON + ("--function", "--point", "--r-grid", "--depth"),
}


def _public_functions():
    """(module.name[.method], function) for each module's `__all__` defined there.

    Classes contribute `__init__` and every method whose name has no leading
    underscore.
    """
    for info in pkgutil.iter_modules(polarhull.__path__):
        mod = importlib.import_module(f"polarhull.{info.name}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # a re-export, pinned where it is defined
            if inspect.isclass(obj) and obj.__name__ != name:
                continue  # another name for a class, pinned under its own
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", value) for attr, value in vars(obj).items()
                           if attr == "__init__" or not attr.startswith("_")]
            for qualname, value in members:
                if isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                if inspect.isfunction(value):
                    yield f"{info.name}.{qualname}", value


def _defaulted(fn) -> tuple:
    params = inspect.signature(fn).parameters.values()
    return tuple(p.name for p in params if p.default is not inspect.Parameter.empty)


def test_defaulted_parameters_are_pinned():
    found = {name: d for name, fn in _public_functions() if (d := _defaulted(fn))}
    assert found == PINNED, (
        "the public defaulted parameters changed.  A setting that only one value in "
        "use needs belongs in a module constant; add a parameter only when two "
        "existing callers need different values, then pin it here.")


def test_settings_constants_are_pinned():
    for name, value in CONSTANTS.items():
        module, attr = name.split(".")
        assert getattr(importlib.import_module(f"polarhull.{module}"), attr) == value, name


def test_cli_options_are_pinned():
    found = {name: sorted(opt for p in cmd.params for opt in p.opts)
             for name, cmd in cli.cli.commands.items()}
    assert found == {name: sorted(opts) for name, opts in CLI_OPTIONS.items()}


def test_top_level_exports_are_pinned():
    assert tuple(polarhull.__all__) == EXPORTS


def test_package_size_is_pinned():
    package = Path(polarhull.__file__).parent
    lines = sum(bool(line.strip()) for path in package.rglob("*.py")
                for line in path.read_text().splitlines())
    assert lines <= SOURCE_LINES, f"{lines} non-blank source lines, above {SOURCE_LINES}"


def test_disk_is_the_circle_type():
    assert polarhull.Disk is polarhull.CircleContour


def test_rational_model_is_the_pole_series_type():
    from polarhull.models import RationalModel

    assert polarhull.RationalModel is polarhull.PoleSeries is RationalModel
    assert RationalModel([0.3, 0.5], [1.0, 2.0]).label == "pole-series"


def test_every_export_resolves():
    # a name left in some __all__ after its definition is gone breaks star imports
    for info in pkgutil.iter_modules(polarhull.__path__):
        mod = importlib.import_module(f"polarhull.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"polarhull.{info.name}.{name}"
    for name in polarhull.__all__:
        assert hasattr(polarhull, name), name


def _documented_names():
    """(module, NAME) for every backticked `module.NAME` in the README and the
    artifact schema, and every bare backticked ALL-CAPS name in the README's
    fixed-thresholds bullet, read in the module named last before it."""
    root = Path(__file__).resolve().parents[1]
    modules = {info.name for info in pkgutil.iter_modules(polarhull.__path__)}
    for doc in ("README.md", "docs/artifact-schema.md"):
        for module, name in re.findall(r"`(\w+)\.(\w+)`", (root / doc).read_text()):
            if module in modules and name not in ("json", "csv"):  # not an artifact file
                yield module, name
    readme = (root / "README.md").read_text()
    bullet = re.search(r"^- Fixed thresholds(.*?)(?=^- |^$)", readme, re.S | re.M).group(1)
    module = None
    for prefix, name in re.findall(r"`(?:(\w+)\.)?([A-Z][A-Z0-9_]*)`", bullet):
        module = prefix or module
        yield module, name


def test_documented_names_resolve():
    names = list(_documented_names())
    assert ("core", "MAX_DEPTH") in names  # the bullet was found and read
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"polarhull.{module}"), name)]
    assert missing == []
