"""Modules load only where they are used: scipy only for the kNN
estimators, the analog density's Bessel function and the verify statistics,
and never scipy.stats; the package's own submodules only on first use of one
of their names, and in the CLI only for the command that needs them.

Each check runs in a fresh interpreter, because the test process itself has
all of them loaded already.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np

from improper import entropy, fileio, second_order as so

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_closed_form_paths_never_load_scipy(tmp_path):
    for name, value in [("C", [[1.0, 0.2], [0.2, 2.0]]), ("P", [[0.3, 0.1], [0.1, -0.4]]),
                        ("H", [[1.0, 0.1], [0.0, 1.0]])]:
        fileio.write_matrix(str(tmp_path / f"{name}.json"), np.array(value, dtype=complex))
    run_python("""
        import sys

        def scipy_modules():
            return [m for m in sys.modules if m.split(".")[0] == "scipy"]

        import improper
        assert not scipy_modules(), "import improper"
        import improper.cli
        assert not scipy_modules(), "import improper.cli"
        for argv in (["validate", "C.json", "P.json"],
                     ["entropy", "C.json", "P.json"],
                     ["capacity", "H.json", "C.json", "P.json", "--power", "20",
                      "--loss", "--output", "cap"],
                     ["analog-sample", "C.json", "P.json", "--samples", "500",
                      "--output", "analog"]):
            assert improper.cli.main(argv) == 0, argv
            assert not scipy_modules(), argv
        """, cwd=tmp_path)


def test_each_command_imports_only_its_own_modules(tmp_path):
    for name, value in [("C", [[1.0, 0.2], [0.2, 2.0]]), ("P", [[0.3, 0.1], [0.1, -0.4]]),
                        ("H", [[1.0, 0.1], [0.0, 1.0]])]:
        fileio.write_matrix(str(tmp_path / f"{name}.json"), np.array(value, dtype=complex))
    run_python("""
        import sys

        HEAVY = {"improper.verify", "improper.capacity", "improper.analog",
                 "improper.entropy", "improper.transforms", "datetime", "csv"}

        def loaded(names):
            return sorted(names & set(sys.modules))

        import improper
        assert not loaded(HEAVY | {"numpy"}), loaded(HEAVY | {"numpy"})
        import numpy  # numpy loads datetime itself; improper.cli must add none of HEAVY
        already = set(sys.modules)
        import improper.cli
        assert not loaded(HEAVY - already), loaded(HEAVY - already)

        main = improper.cli.main
        assert main(["validate", "C.json", "P.json"]) == 0
        assert not loaded(HEAVY - already), "validate"
        assert main(["capacity", "H.json", "C.json", "P.json", "--power", "20"]) == 0
        assert "improper.capacity" in sys.modules
        assert not loaded({"improper.verify", "improper.analog"}), "capacity"
        assert main(["analog-sample", "C.json", "P.json", "--samples", "200",
                     "--output", "analog"]) == 0
        assert "improper.analog" in sys.modules and "improper.verify" not in sys.modules
        """, cwd=tmp_path)


def test_every_exported_name_resolves_lazily(tmp_path):
    run_python("""
        import sys
        import improper

        names = list(improper.__all__)
        assert names and set(names) <= set(dir(improper))
        for name in names:
            value = getattr(improper, name)
            assert vars(improper)[name] is value, name  # cached after the first lookup
            assert getattr(sys.modules[value.__module__], name) is value, name
        assert improper.linalg is sys.modules["improper.linalg"]
        try:
            improper.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("unknown names must raise AttributeError")
        namespace = {}
        exec("from improper import *", namespace)
        assert set(names) <= set(namespace)
        """, cwd=tmp_path)


def test_analog_model_is_numpy_only_and_density_loads_scipy_special(tmp_path):
    run_python("""
        import sys
        import numpy as np
        import improper

        pair = improper.SecondOrderPair(cov=np.eye(1), pcov=np.array([[0.8]]))
        model = improper.analog_gaussian_model(pair)
        assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
        improper.analog_gaussian_density(model, np.array([0.5 + 0.5j]))
        assert "scipy.special" in sys.modules
        """, cwd=tmp_path)


def test_estimators_and_verify_still_load_scipy(tmp_path):
    out = run_python("""
        import sys
        import numpy as np
        import improper
        from improper import entropy, second_order as so

        x = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 2000, seed=3)
        h = entropy.knn_entropy(x)
        assert "scipy.spatial" in sys.modules and "scipy.special" in sys.modules
        import scipy.spatial
        assert entropy.cKDTree is scipy.spatial.cKDTree
        import improper.cli
        assert improper.cli.main(["verify", "--suite", "analog"]) == 0
        assert "scipy.stats" not in sys.modules
        print(repr(h.value))
        """, cwd=tmp_path)
    x = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 2000, seed=3)
    # same estimate in a fresh interpreter as with scipy loaded up front
    assert float(out.strip().splitlines()[-1]) == entropy.knn_entropy(x).value


def test_verify_never_loads_scipy_stats(tmp_path):
    run_python("""
        import sys
        import improper.cli

        assert improper.cli.main(["verify", "--suite", "all", "--samples", "2000"]) == 0
        assert "scipy.special" in sys.modules and "scipy.spatial" in sys.modules
        assert "scipy.stats" not in sys.modules
        """, cwd=tmp_path)


def test_estimators_build_trees_with_the_module_attribute(monkeypatch):
    real = entropy.cKDTree
    built = []

    class CountingTree:
        def __init__(self, data, *args, **kwargs):
            built.append(len(data))
            self._tree = real(data, *args, **kwargs)

        def query(self, x, *args, **kwargs):
            return self._tree.query(x, *args, **kwargs)

    monkeypatch.setattr(entropy, "cKDTree", CountingTree)
    pair = so.SecondOrderPair.proper(np.eye(1))
    a = so.sample_gaussian(pair, 1000, seed=5)
    b = so.sample_gaussian(pair, 1000, seed=6)
    entropy.knn_entropy(a)
    entropy.knn_kl_divergence(a, b)
    assert built == [1000, 1000]  # a is searched once, b only as the q-sample
