"""Dynamic module download.

Paper §4: *"After an implementation of the combined interface has been
provided, the device class is compiled and the object code is
downloaded dynamically into the running executives.  At this point a
plugin method ... is called by the executive, which allows us to
register the downloaded object."*

The Python analogue of downloading object code is compiling source
text into a fresh module namespace at runtime.  ``download_module``
takes device-class source, compiles it, instantiates the named class
and installs it into a *running* executive — used by the configuration
layer (`module` command of the Tcl-ish control script) and exercised
in tests to hot-add functionality mid-run.
"""

from __future__ import annotations

import itertools
import types
from typing import TYPE_CHECKING

from repro.core.device import Listener
from repro.i2o.errors import I2OError
from repro.i2o.tid import Tid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executive import Executive


class ModuleDownloadError(I2OError):
    """Source did not compile or did not define the promised class."""


_download_counter = itertools.count(1)


def compile_module(source: str, module_name: str | None = None) -> types.ModuleType:
    """Compile device-class source text into a fresh module object."""
    if module_name is None:
        module_name = f"repro_downloaded_{next(_download_counter)}"
    module = types.ModuleType(module_name)
    module.__dict__["__builtins__"] = __builtins__
    try:
        code = compile(source, filename=f"<download:{module_name}>", mode="exec")
        exec(code, module.__dict__)
    except SyntaxError as exc:
        raise ModuleDownloadError(f"module source does not compile: {exc}") from exc
    return module


def download_module(
    executive: "Executive",
    source: str,
    class_name: str,
    *,
    parameters: dict[str, str] | None = None,
    name: str = "",
) -> Tid:
    """Compile, instantiate and install a device class; returns its TiD."""
    module = compile_module(source)
    cls = getattr(module, class_name, None)
    if cls is None:
        raise ModuleDownloadError(f"source defines no class {class_name!r}")
    if not (isinstance(cls, type) and issubclass(cls, Listener)):
        raise ModuleDownloadError(f"{class_name!r} is not a Listener subclass")
    instance = cls(name=name) if name else cls()
    if parameters:
        instance.parameters.update(parameters)
    return executive.install(instance)


class ModuleRegistry:
    """Bookkeeping of downloaded modules per executive."""

    def __init__(self) -> None:
        self._modules: dict[Tid, types.ModuleType] = {}

    def record(self, tid: Tid, module: types.ModuleType) -> None:
        self._modules[tid] = module

    def forget(self, tid: Tid) -> None:
        self._modules.pop(tid, None)

    def __len__(self) -> int:
        return len(self._modules)
