"""Call tracing of the anomgen modules from outside the package.

Each traced function is wrapped once and the wrapper is installed at every
module attribute that refers to it, so functions imported by name into other
modules (``seeded_gaussian``, ``predict_noise``, ``backward``) are counted
wherever they are called from.  Spans nest on a stack; a key's self time is
its spans' duration minus the time covered by child spans.  Calls and rows
are counted only at the outermost span of a key, so a wrapper that delegates
to another traced function of the same key (``predict_noise`` ->
``Denoiser.forward``) is counted once.

Functions absent from ``KEYS`` are not wrapped; their time counts to the
span of their caller.  That keeps small helpers on the hot path (gate masks,
embeddings, ``Tensor`` primitives) inside the denoiser forward they belong to.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

import numpy as np

# stages that only run inference; forward outputs there should carry no graph
INFERENCE_STAGES = ("sample", "localize")

_STAGE = "<stage>"  # key resolved to the cli.<stage> span at call time
_FORWARD = "<forward>"  # frozen or adapted, from the adapters argument

KEYS = {
    "rng.seeded_gaussian": "rng.gaussian",
    "rng.seeded_uniform": "rng.uniform",
    "rng.seeded_randint": "rng.uniform",
    "schedule.build_schedule": "schedule.build",
    "schedule.forward_noise": "schedule.forward_noise",
    "schedule.beta_weight": "schedule.beta_weight",
    "denoiser.Denoiser.forward": _FORWARD,
    "denoiser.predict_noise": _FORWARD,
    "denoiser.save_reference": "denoiser.ckpt_io",
    "denoiser.load_reference": "denoiser.ckpt_io",
    "denoiser.save_adapters": "denoiser.ckpt_io",
    "denoiser.load_adapters": "denoiser.ckpt_io",
    "autodiff.backward": "autodiff.backward",
    "autodiff.zero_grads": "autodiff.zero_grads",
    "optim.Adam.step": "optim.adam",
    "optim.adam_step": "optim.adam",
    "preference.apo_loss": "preference.loss",
    "preference.sd_loss": "preference.loss",
    "preference.bt_preference_prob": "preference.pref_prob",
    "preference.alignment_deviation": "preference.deviation",
    "trainer.pretrain_reference": "trainer.pretrain",
    "trainer.align": "trainer.align",
    "sampler.sample": "sampler.sample",
    "sampler.guided_eps": "sampler.guided_eps",
    "sampler.ddim_step": "sampler.ddim_step",
    "sampler.deviation_run": "sampler.deviation_run",
    "sampler.save_run": "sampler.save_run",
    "tensorio.write_tensor": "tensorio.write",
    "tensorio.read_tensor": "tensorio.read",
    "tensorio.save_tensor": "tensorio.file",
    "tensorio.load_tensor": "tensorio.file",
    "localization.accumulate_map": "localization.accumulate_map",
    "localization.normalize_and_smooth": "localization.normalize_and_smooth",
    "dataset.generate_dataset": "dataset.generate",
    "dataset.gen_normal": "dataset.generate",
    "dataset.gen_anomaly": "dataset.generate",
    "dataset.split_few_shot": "dataset.generate",
    "dataset.load_dataset": "dataset.load",
    "dataset.write_pgm": "dataset.pgm_io",
    "dataset.read_pgm": "dataset.pgm_io",
    "dataset.encode_latent": "dataset.codec",
    "dataset.decode_latent": "dataset.codec",
    "metrics.ScoredPixels.make": "metrics.ranking",
    "metrics.auroc": "metrics.ranking",
    "metrics.average_precision": "metrics.ranking",
    "metrics.f1_max": "metrics.ranking",
    "metrics.diversity_proxy": "metrics.diversity",
    "cli.main": _STAGE,
    "pipeline.run_pretrain": _STAGE,
    "pipeline.run_align": _STAGE,
    "pipeline.run_sample": _STAGE,
    "pipeline.run_localize": _STAGE,
    "pipeline.run_eval": _STAGE,
    "pipeline.load_aligned": _STAGE,
    "pipeline.normal_training_set": _STAGE,
    "pipeline.anomaly_training_set": _STAGE,
}


class Stat:
    __slots__ = ("calls", "rows", "self_s", "wall_s")

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.self_s = 0.0
        self.wall_s = 0.0


class Tracer:
    """Span stack plus per-key totals; install() patches, uninstall() restores."""

    def __init__(self, package: str = "anomgen"):
        self.package = package
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.stage_rows: dict[tuple[str, str], int] = defaultdict(int)
        self.inference_graphs = 0
        self.write_bytes = 0
        self.stage = ""
        self._stack: list[list] = []  # [key, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _enter(self, key: str) -> list:
        frame = [key, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, elapsed: float, rows: int) -> None:
        self._stack.pop()
        st = self.stats[frame[0]]
        st.self_s += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed
        if not self._stack or self._stack[-1][0] != frame[0]:
            st.calls += 1
            st.rows += rows
            if rows:
                self.stage_rows[(self.stage, frame[0])] += rows

    def run_stage(self, stage: str, fn, *args):
        """Run one pipeline stage inside a cli.<stage> span."""
        self.stage = stage
        key = "cli." + stage
        frame = self._enter(key)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            self.stats[key].wall_s += elapsed
            self._exit(frame, elapsed, 0)
            self.stage = ""

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, key: str):
        tracer = self
        if key == _FORWARD:
            is_method = fn.__qualname__ == "Denoiser.forward"

            def classify(args, kwargs):
                # Denoiser.forward(self, z_t, c, t, adapters=None, gate=None)
                # predict_noise(model, adapters, z_t, c, t, gate=None)
                if is_method:
                    adapters = args[4] if len(args) > 4 else kwargs.get("adapters")
                    z = args[1] if len(args) > 1 else kwargs["z_t"]
                else:
                    adapters = args[1] if len(args) > 1 else kwargs.get("adapters")
                    z = args[2] if len(args) > 2 else kwargs["z_t"]
                rows = np.size(getattr(z, "data", z)) // args[0].latent_dim
                return ("denoiser.forward_adapted" if adapters is not None
                        else "denoiser.forward_frozen"), rows
        elif key == _STAGE:
            def classify(args, kwargs):
                return "cli." + tracer.stage, 0
        else:
            def classify(args, kwargs):
                return key, 0

        count_graphs = fn.__qualname__ == "Denoiser.forward"
        count_bytes = fn.__qualname__ == "write_tensor"

        def wrapper(*args, **kwargs):
            span_key, rows = classify(args, kwargs)
            frame = tracer._enter(span_key)
            pos = args[0].tell() if count_bytes else 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, time.perf_counter() - t0, rows)
            if count_graphs and tracer.stage in INFERENCE_STAGES and getattr(result, "_parents", ()):
                tracer.inference_graphs += 1
            if count_bytes:
                tracer.write_bytes += args[0].tell() - pos
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        pkg = importlib.import_module(self.package)
        modules = [importlib.import_module(f"{self.package}.{m.name}")
                   for m in pkgutil.iter_modules(pkg.__path__)]
        by_name = {}  # "module.qualname" -> original function
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    by_name[f"{short}.{name}"] = obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, mobj in vars(obj).items():
                        raw = mobj.__func__ if isinstance(mobj, staticmethod) else mobj
                        if inspect.isfunction(raw):
                            by_name[f"{short}.{name}.{mname}"] = raw
        missing = sorted(set(KEYS) - set(by_name))
        if missing:
            raise RuntimeError(f"traced functions not found in {self.package}: {missing}")
        wrappers = {id(by_name[name]): self._wrap(by_name[name], key) for name, key in KEYS.items()}

        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, name, obj, wrappers[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, mobj in list(vars(obj).items()):
                        if isinstance(mobj, staticmethod) and id(mobj.__func__) in wrappers:
                            self._patch(obj, mname, mobj, staticmethod(wrappers[id(mobj.__func__)]))
                        elif inspect.isfunction(mobj) and id(mobj) in wrappers:
                            self._patch(obj, mname, mobj, wrappers[id(mobj)])

    def _patch(self, owner, name, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- totals -----------------------------------------------------------------

    def module_self_s(self, module: str) -> float:
        return sum(st.self_s for key, st in self.stats.items() if key.split(".")[0] == module)
