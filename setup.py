from setuptools import Extension, setup

# optional=True: a missing C compiler degrades to the pure-Python kernel
setup(ext_modules=[Extension("rado._kernel_c", ["src/rado/_kernel_c.c"], optional=True)])
