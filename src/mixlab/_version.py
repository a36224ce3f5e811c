__version__ = "0.19.0"
